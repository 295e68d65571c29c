"""Command-line interface."""

import pytest

from evcm import cli
from evcm.cli import main


@pytest.fixture
def fixture_events(tmp_path):
    """A small synthetic square scene written to disk, object at ROI (18, 68)."""
    rc = main(
        [
            "synth",
            "--scene", "square",
            "--vx", "2.0", "--vy", "-1.5",
            "--start-x", "50", "--start-y", "100",
            "--size", "24",
            "--batches", "3",
            "--events-per-batch", "2000",
            "--seed", "7",
            "--output-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    return tmp_path / "events.txt"


def effective(argv):
    """(TrackerConfig, input path, output dir) that ``track argv`` runs with."""
    return cli._run_config(cli.build_parser().parse_args(["track", *argv]))


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="ascii")
    return str(path)


# key: (non-default value, the flag argv giving the same value, another value)
SETTING_CASES = {
    "input_path": ("in.txt", ["--input", "in.txt"], "other.txt"),
    "output_dir": ("out", ["--output-dir", "out"], "other"),
    "dump_iwe": ("yes", ["--dump-iwe"], "no"),
    "sensor_width": ("320", ["--sensor", "320x180"], "300"),
    "sensor_height": ("240", ["--sensor", "240x240"], "200"),
    "batch_size": ("123", ["--batch-size", "123"], "77"),
    "roi_update_scale": ("2.0", ["--roi-update-scale", "2.0"], "0.5"),
    "min_roi_events": ("3", ["--min-roi-events", "3"], "30"),
    "roi_x0": ("10.5", ["--roi-x0", "10.5"], "20"),
    "roi_y0": ("7.25", ["--roi-y0", "7.25"], "9"),
    "roi_w": ("32", ["--roi", "32x64"], "48"),
    "roi_h": ("16", ["--roi", "64x16"], "48"),
    "iterations": ("7", ["--iterations", "7"], "9"),
    "vx_init": ("1.5", ["--vx-init", "1.5"], "-1"),
    "vy_init": ("-2.5", ["--vy-init", "-2.5"], "1"),
}


class TestRunConfig:
    """The ``--config`` file of ``track`` and ``estimate``."""

    def test_every_key_has_a_case(self):
        assert set(SETTING_CASES) == set(cli.RUN_SETTINGS)

    @pytest.mark.parametrize("key", list(SETTING_CASES))
    def test_config_key_matches_its_flag(self, key, tmp_path):
        value, flag_argv, other = SETTING_CASES[key]
        default = effective([])
        from_flag = effective(flag_argv)
        assert from_flag != default
        assert effective(["--config", write_config(tmp_path, f"{key} = {value}\n")]) == from_flag
        # the flag wins over the file
        cfg = write_config(tmp_path, f"{key} = {other}\n")
        assert effective(["--config", cfg]) != from_flag
        assert effective(["--config", cfg, *flag_argv]) == from_flag
        # an empty value keeps the default, also after an earlier value
        cfg = write_config(tmp_path, f"{key} = {value}\n{key} =\n")
        assert effective(["--config", cfg]) == default

    @pytest.mark.parametrize(
        "text,on",
        [("1", True), ("true", True), ("YES", True), ("Yes", True),
         ("0", False), ("false", False), ("NO", False)],
    )
    def test_dump_iwe_spellings(self, text, on, tmp_path):
        cfg, _, out_dir = effective(["--config", write_config(tmp_path, f"dump_iwe = {text}")])
        assert cfg.dump_iwe_dir == (out_dir if on else None)

    @pytest.mark.parametrize(
        "line,message",
        [("iterations = abc", "iterations: invalid literal for int()"),
         ("batch_size = 5.0", "batch_size: invalid literal for int()"),
         ("roi_x0 = 1,5", "roi_x0: could not convert string to float"),
         ("dump_iwe = maybe", "dump_iwe: expected 1/true/yes or 0/false/no")],
    )
    def test_bad_value_names_line_and_key(self, line, message, tmp_path, capsys):
        cfg = write_config(tmp_path, f"# settings\n{line}\n")
        rc = main(["track", "--config", cfg, "--output-dir", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: config line 2: {message}")
        assert not (tmp_path / "run").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        rc = main(["track", "--config", write_config(tmp_path, "no_such_key = 1\n")])
        assert rc == 1
        assert "unknown key 'no_such_key'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["seed = 3", "accumulator_mode = banked", "learning_rate = 0.5"]
    )
    def test_removed_keys_rejected(self, line, tmp_path, capsys):
        rc = main(["estimate", "--config", write_config(tmp_path, line)])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        rc = main(["track", "--config", write_config(tmp_path, "just words\n")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config line 1: expected key = value")

    def test_comments_ignored(self, fixture_events, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path,
            f"# comment\ninput_path = {fixture_events}\n  # indented comment\n\n"
            f"batch_size = 2000\nroi_x0 = 18\nroi_y0 = 68\noutput_dir = {out}\n",
        )
        assert main(["track", "--config", cfg]) == 0
        assert len((out / "trajectory.csv").read_text(encoding="ascii").splitlines()) == 4


class TestSynthCommand:
    def test_outputs_written(self, fixture_events):
        out = fixture_events.parent
        assert fixture_events.exists()
        assert (out / "truth.json").exists()

    def test_deterministic_given_seed(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(
                ["synth", "--seed", "7", "--batches", "2",
                 "--output-dir", str(tmp_path / sub)]
            )
            assert rc == 0
        assert (tmp_path / "a" / "events.txt").read_bytes() == (
            tmp_path / "b" / "events.txt"
        ).read_bytes()

    @pytest.mark.parametrize(
        "argv,message",
        [(["--vx", "nan"], "velocity must be finite"),
         (["--start-y", "inf"], "start must be finite"),
         (["--batch-duration-us", "0"], "batch_duration_us must be >= 1"),
         (["--batch-duration-us", "-5"], "batch_duration_us must be >= 1"),
         (["--size", "-5"], "object_size must be >= 1"),
         (["--size", "0"], "object_size must be >= 1"),
         (["--seed", "-1"], "seed must be >= 0")],
    )
    def test_bad_scene_fails(self, tmp_path, argv, message, capsys):
        out = tmp_path / "scene"
        assert main(["synth", "--output-dir", str(out), *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


class TestTrackCommand:
    def test_trajectory_rows(self, fixture_events, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "track",
                "--input", str(fixture_events),
                "--batch-size", "2000",
                "--roi-x0", "18", "--roi-y0", "68",
                "--roi-update-scale", "2.0",
                "--output-dir", str(out),
                "--dump-iwe",
            ]
        )
        assert rc == 0
        lines = (out / "trajectory.csv").read_text(encoding="ascii").splitlines()
        assert lines[0] == "batch,x_roi,y_roi,vx,vy,contrast,events_in_roi"
        assert len(lines) == 4  # header + 3 batches
        assert (out / "iwe_0000.pgm").exists()
        assert "batches: 3" in capsys.readouterr().out

    def test_missing_input_fails_with_message(self, tmp_path, capsys):
        rc = main(["track", "--input", str(tmp_path / "nope.txt")])
        assert rc == 1
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "estimate"])
    def test_no_input_fails_with_message(self, command, tmp_path, capsys):
        rc = main([command, "--output-dir", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no input file")

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_bad_roi_update_scale_fails(self, fixture_events, tmp_path, scale, capsys):
        out = tmp_path / "run"
        rc = main(
            ["track", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68", "--roi-update-scale", scale,
             "--output-dir", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: roi_update_scale must be")
        assert not (out / "trajectory.csv").exists()

    def test_field_beyond_int64_fails_with_line_number(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text(
            "# t x y p\n1 2 3 1\n99999999999999999999999 3 4 0\n", encoding="ascii"
        )
        rc = main(
            ["track", "--input", str(events), "--batch-size", "2",
             "--min-roi-events", "1", "--output-dir", str(tmp_path / "run")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: line 3: ")

    def test_roi_larger_than_sensor_fails(self, fixture_events, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["track", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi", "300x64", "--output-dir", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ROI 300x64 does not fit")
        assert not (out / "trajectory.csv").exists()

    def test_roi_origin_off_the_sensor_fails(self, fixture_events, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["track", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "500", "--roi-y0", "68", "--output-dir", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ROI origin (500.0, 68.0)")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "flag,key,value",
        [("--vx-init", "vx_init", "nan"), ("--vy-init", "vy_init", "-inf")],
    )
    def test_non_finite_velocity_init_names_setting(self, fixture_events, tmp_path,
                                                    flag, key, value, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, f"input_path = {fixture_events}\n{key} = {value}\n")
        for argv in (["--input", str(fixture_events), f"{flag}={value}"],
                     ["--config", cfg_path]):
            assert main(["track", *argv, "--output-dir", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["--accumulator-mode", "--seed"])
    def test_removed_run_flags_rejected(self, fixture_events, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--input", str(fixture_events), flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, fixture_events, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"input_path = {fixture_events}\nbatch_size = 1000\n"
            "roi_x0 = 18\nroi_y0 = 68\n",
            encoding="ascii",
        )
        out = tmp_path / "out"
        rc = main(
            ["track", "--config", str(cfg_path), "--batch-size", "2000",
             "--output-dir", str(out)]
        )
        assert rc == 0
        lines = (out / "trajectory.csv").read_text(encoding="ascii").splitlines()
        assert len(lines) == 4  # flag override (2000/batch) beat the config file


class TestEstimateCommand:
    def test_trace_rows_match_iterations(self, fixture_events, tmp_path, capsys):
        out = tmp_path / "est"
        rc = main(
            [
                "estimate",
                "--input", str(fixture_events),
                "--batch-size", "2000",
                "--roi-x0", "18", "--roi-y0", "68",
                "--iterations", "12",
                "--output-dir", str(out),
                "--dump-iwe",
            ]
        )
        assert rc == 0
        lines = (out / "trace.csv").read_text(encoding="ascii").splitlines()
        assert lines[0] == "iteration,vx,vy,contrast,grad_vx,grad_vy"
        assert len(lines) == 13
        assert (out / "iwe_final.pgm").exists()
        assert "v = (" in capsys.readouterr().out

    def test_single_iteration(self, fixture_events, tmp_path):
        out = tmp_path / "est1"
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68", "--iterations", "1",
             "--output-dir", str(out)]
        )
        assert rc == 0
        assert len((out / "trace.csv").read_text(encoding="ascii").splitlines()) == 2

    def test_trace_contrast_non_decreasing_on_fixture(self, fixture_events, tmp_path):
        # from a start on the slope three unit steps from the peak, the
        # contrast rises until a gradient sign first flips (the step overshot
        # the peak); the halved steps after it may lose contrast, but never
        # all of the gain
        out = tmp_path / "est2"
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68",
             "--vx-init", "-2", "--vy-init", "1",
             "--output-dir", str(out)]
        )
        assert rc == 0
        rows = (out / "trace.csv").read_text(encoding="ascii").splitlines()[1:]
        contrasts = [float(r.split(",")[3]) for r in rows]
        signs = [tuple(float(g) > 0 for g in r.split(",")[4:]) for r in rows]
        overshoot = next(k for k in range(1, len(rows)) if signs[k] != signs[k - 1])
        rising = contrasts[:overshoot]
        assert len(rising) >= 3
        assert all(b >= a - 1e-9 for a, b in zip(rising, rising[1:]))
        assert contrasts[-1] >= contrasts[0]

    def test_rows_after_a_fixed_point_repeat_without_a_readout(
            self, fixture_events, tmp_path, readouts, capsys):
        # from this warm start both steps are below LEAST_STEP after row 15's
        # step, so the velocity stops moving at row 16; the later rows repeat
        # that row, and the readout at row 16 is the last; row 7 steps back
        # onto row 4's velocity and reuses its readout
        out = tmp_path / "est3"
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68",
             "--vx-init", "-2", "--vy-init", "1",
             "--output-dir", str(out)]
        )
        assert rc == 0
        rows = (out / "trace.csv").read_text(encoding="ascii").splitlines()[1:]
        assert len(rows) == 100
        held = [row.split(",", 1)[1] for row in rows]
        assert held[15] != held[16]
        assert len(set(held[16:])) == 1
        assert held[4] == held[7]
        assert readouts() == 16
        assert capsys.readouterr().out.startswith("iterations: 100  readouts: 16  v = (")

    @pytest.mark.parametrize("command,output", [("estimate", "trace.csv"),
                                                ("track", "trajectory.csv")])
    def test_runaway_last_step_fails(self, tmp_path, command, output, capsys):
        # two events at the 64x64 ROI's side edges, at the batch's two ends:
        # the one unit step carries both off the grid, and the closing
        # readout finds no vote mass; the velocity is not reported
        events = tmp_path / "edges.txt"
        events.write_text("0 63 32 1\n1 0 32 1\n", encoding="ascii")
        out = tmp_path / "run"
        rc = main(
            [command, "--input", str(events), "--min-roi-events", "1",
             "--iterations", "1", "--output-dir", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no vote mass")
        assert not (out / output).exists()

    def test_divergent_step_fails_loudly(self, fixture_events, tmp_path, capsys):
        # a warm start far off the grid leaves no vote mass at the first readout
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68", "--vx-init", "1e6",
             "--output-dir", str(tmp_path / "est")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "diverged" in captured.err
        assert "v = (" not in captured.out

    def test_removed_learning_rate_flag_rejected(self, capsys):
        # the first step is a constant; the flag it had is an argparse error
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--learning-rate", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --learning-rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [(["--batch-size", "-5"], "batch_size must be >= 1"),
         (["--roi", "300x64"], "ROI 300x64 does not fit the 240x180 sensor"),
         (["--roi-x0", "nan"], "ROI origin (nan, 0.0) must lie in"),
         (["--min-roi-events", "0"], "min_roi_events must be >= 1")],
    )
    def test_tracker_config_checks(self, fixture_events, tmp_path, argv, message, capsys):
        out = tmp_path / "est"
        rc = main(
            ["estimate", "--input", str(fixture_events), "--output-dir", str(out), *argv]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (out / "trace.csv").exists()

    def test_too_few_roi_events_fails(self, tmp_path, capsys):
        # the README walkthrough's scene holds about 9.5k events in this ROI
        assert main(
            ["synth", "--scene", "square", "--vx", "3", "--vy", "-2",
             "--start-x", "50", "--start-y", "100", "--size", "24",
             "--batches", "10", "--events-per-batch", "10000", "--noise", "0.05",
             "--seed", "7", "--output-dir", str(tmp_path)]
        ) == 0
        out = tmp_path / "est"
        rc = main(
            ["estimate", "--input", str(tmp_path / "events.txt"), "--batch-size", "10000",
             "--roi-x0", "18", "--roi-y0", "68", "--min-roi-events", "999999",
             "--iterations", "2", "--output-dir", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: only ")
        assert "events inside the ROI; estimate needs at least 999999" in err
        assert not (out / "trace.csv").exists()

    def test_out_of_range_batch_index(self, fixture_events, capsys):
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--batch-index", "99"]
        )
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    def test_negative_batch_index_rejected(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("0 1 1 1\n10 2 2 0\n20 3 3 1\n30 4 4 0\n", encoding="ascii")
        rc = main(
            ["estimate", "--input", str(events), "--batch-size", "2",
             "--batch-index", "-2", "--output-dir", str(tmp_path / "est")]
        )
        assert rc == 1
        assert "batch index -2" in capsys.readouterr().err
        assert not (tmp_path / "est" / "trace.csv").exists()


class TestCyclesCommand:
    def test_reference_parameters(self, capsys):
        rc = main(
            ["cycles", "--n-events", "5000", "--iters", "100",
             "--roi-events", "800", "--roi", "64x64", "--clock", "210e6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "194100" in out
        assert "0.9243" in out

    def test_default_invocation_lists_reference_hosts(self, capsys):
        assert main(["cycles"]) == 0
        out = capsys.readouterr().out
        assert "CPU (i5-11300H)" in out
        assert "GPU (RTX 3050 Ti)" in out

    def test_odd_roi_rejected(self, capsys):
        assert main(["cycles", "--roi", "63x63"]) == 1
        assert "divisible by 4" in capsys.readouterr().err

    def test_odd_sided_roi_rejected(self, capsys):
        # P = 12 is divisible by 4, but the parity banks need even sides
        assert main(["cycles", "--roi", "4x3", "--roi-events", "10", "--n-events", "10"]) == 1
        assert capsys.readouterr().err == (
            "error: banked accumulator needs even grid dimensions, got 4x3\n")

    @pytest.mark.parametrize("clock", ["inf", "nan"])
    def test_non_finite_clock_rejected(self, clock, capsys):
        assert main(["cycles", "--clock", clock]) == 1
        assert capsys.readouterr().err.startswith("error: f_clk must be positive and finite")

    def test_zero_cycle_projection_is_an_error(self, capsys):
        assert main(["cycles", "--n-events", "0", "--iters", "0", "--roi-events", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: the FPGA projection is 0 cycles")

    def test_more_roi_events_than_batch_events_rejected(self, capsys):
        assert main(["cycles", "--n-events", "800", "--roi-events", "900"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: n (900 ROI events) must not exceed N (800)")

    def test_csv_format(self, capsys):
        assert main(["cycles", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("label,time_ms,speedup")

    @pytest.mark.parametrize("flag", ["--readout-latency", "--voting-latency"])
    def test_latencies_are_not_flags(self, flag, capsys):
        # the pipeline latencies are the cyclemodel constants
        with pytest.raises(SystemExit) as exc:
            main(["cycles", flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [("track", "--roi"), ("track", "--sensor"), ("estimate", "--roi"),
     ("estimate", "--sensor"), ("synth", "--sensor"), ("cycles", "--roi")],
)
@pytest.mark.parametrize("size", ["64", "64x", "x64", "64x64x2", "axb", "0x0", "-4x-4"])
def test_malformed_size_names_flag_and_form(command, flag, size, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={size}"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected WxH, got {size!r}" in capsys.readouterr().err
