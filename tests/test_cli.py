"""Command-line interface."""

import pytest

from evcm.cli import RunConfig, main


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


class TestRunConfig:
    def test_text_round_trip(self):
        cfg = RunConfig(
            input_path="x.txt",
            roi_x0=3.5,
            learning_rate=0.25,
            output_dir="runs/a",
            dump_iwe=True,
        )
        again = RunConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_none_learning_rate_round_trips(self):
        cfg = RunConfig()
        assert cfg.learning_rate is None
        assert RunConfig.from_text(cfg.to_text()).learning_rate is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_text("no_such_key = 1")

    @pytest.mark.parametrize("line", ["seed = 3", "accumulator_mode = banked"])
    def test_removed_keys_rejected(self, line):
        with pytest.raises(ValueError, match="unknown key"):
            RunConfig.from_text(line)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_text("just words")

    def test_comments_ignored(self):
        cfg = RunConfig.from_text("# comment\nbatch_size = 123\n")
        assert cfg.batch_size == 123


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
        # asserted with an explicit small step and a warm start on the slope;
        # the default step favors convergence speed over strict monotonicity
        out = tmp_path / "est2"
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68", "--learning-rate", "0.01",
             "--vx-init", "1.5", "--vy-init", "-1.0",
             "--output-dir", str(out)]
        )
        assert rc == 0
        rows = (out / "trace.csv").read_text(encoding="ascii").splitlines()[1:]
        contrasts = [float(r.split(",")[3]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(contrasts, contrasts[1:]))

    def test_divergent_step_fails_loudly(self, fixture_events, tmp_path, capsys):
        rc = main(
            ["estimate", "--input", str(fixture_events), "--batch-size", "2000",
             "--roi-x0", "18", "--roi-y0", "68", "--learning-rate", "1e9",
             "--output-dir", str(tmp_path / "est")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "diverged" in captured.err
        assert "v = (" not in captured.out

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

    def test_csv_format(self, capsys):
        assert main(["cycles", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("label,time_ms,speedup")
