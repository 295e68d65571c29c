"""Self-tests of the benchmark harness (about two minutes).

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import adapter  # noqa: E402
import worker  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV = {"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "OPENBLAS_NUM_THREADS": "1"}

STAGE_DIGEST = """
import hashlib, sys
from pathlib import Path
import worker
out = Path(sys.argv[3])
worker.WORKLOADS[sys.argv[1]](int(sys.argv[2]), out)
h = hashlib.sha256()
for f in sorted(p for p in out.rglob("*") if p.is_file()):
    h.update(str(f.relative_to(out)).encode() + b"\\0" + f.read_bytes())
print(h.hexdigest())
"""


def staged_digest(workload, seed, workdir):
    workdir.mkdir()
    proc = subprocess.run([sys.executable, "-c", STAGE_DIGEST, workload, str(seed), str(workdir)],
                          env=ENV, capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_for_a_seed_are_byte_identical_across_runs(workload, tmp_path):
    first = staged_digest(workload, 5, tmp_path / "a")
    assert staged_digest(workload, 5, tmp_path / "b") == first
    assert staged_digest(workload, 6, tmp_path / "c") != first


def test_corrupted_banked_result_is_counted_as_failed(tmp_path, monkeypatch):
    wl = worker.BankedDatapath(3, tmp_path)
    wl.warm_up()
    replay = adapter.banked_replay

    def off_by_one_ulp(acc, warped):
        imgs = replay(acc, warped)
        imgs.d_vx.flat[np.argmax(np.abs(imgs.d_vx))] *= 1 + np.finfo(float).eps
        return imgs

    monkeypatch.setattr(adapter, "banked_replay", off_by_one_ulp)
    tally = worker.measure(wl, 0)
    assert tally.attempted >= worker.MIN_PASSES * len(wl.keys)
    assert tally.failed == tally.attempted
    assert worker.end_to_end(wl, tally)["ok_ratio"] == 0.0


def test_non_finite_velocity_is_counted_as_failed(tmp_path, monkeypatch):
    wl = worker.PaperPoint(3, tmp_path)
    tally = worker.Tally()
    tally.op(wl, 0)
    monkeypatch.setattr(adapter, "velocity", lambda v: (math.nan, 0.0))
    tally.op(wl, 1)
    monkeypatch.setattr(adapter, "estimate", lambda batch, region: 1 / 0)
    tally.op(wl, 2)
    assert (tally.attempted, tally.failed) == (3, 2)


@pytest.mark.parametrize("code,csv", [
    (1, None),                                          # non-zero exit
    (0, ""),                                            # no trajectory.csv
    (0, "batch,x,y\n"),                                 # wrong header
    (0, "drop-last-row"),                               # a batch missing
    (0, "nan-velocity"),                                # non-finite velocity
])
def test_malformed_track_output_is_counted_as_failed(tmp_path, monkeypatch, code, csv):
    wl = worker.TrackFile(3, tmp_path)
    good = worker.Tally()
    good.op(wl, 0)
    assert good.failed == 0
    wl.run(0)
    lines = (wl.out / "trajectory.csv").read_text().splitlines()
    text = {"drop-last-row": "\n".join(lines[:-1]) + "\n",
            "nan-velocity": "\n".join(lines[:2] + [lines[2].replace(lines[2].split(",")[3], "nan", 1)]
                                      + lines[3:]) + "\n"}.get(csv, csv)

    def corrupted_run(*args):
        (wl.out / "trajectory.csv").unlink()
        if text is not None:
            (wl.out / "trajectory.csv").write_text(text)
        return code

    monkeypatch.setattr(adapter, "track_file", corrupted_run)
    bad = worker.Tally()
    bad.op(wl, 0)
    assert bad.failed == 1


def test_self_times_add_up_and_missing_targets_are_absent(monkeypatch):
    mod = types.ModuleType("fake_layers")
    exec("def leaf(x):\n    return sum(range(x))\n\n"
         "def outer(x):\n    return leaf(x) + leaf(2 * x)\n", mod.__dict__)
    originals = (mod.leaf, mod.outer)
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    rec = Recorder()
    rec.install([("fake_layers", "outer", "outer_s", lambda a, r: {"calls": 1}),
                 ("fake_layers", "leaf", "leaf_s", None),
                 ("fake_layers", "gone", "gone_s", None),
                 ("no_such_module.Thing", "method", "gone_s", None)])
    rec.active = True
    try:
        mod.outer(10_000)
    finally:
        rec.active = False
        rec.uninstall()
    assert (mod.leaf, mod.outer) == originals
    assert rec.absent == ["fake_layers.gone", "no_such_module.Thing.method"]
    assert [(name, parent) for _, parent, name, *_ in sorted(rec.spans)] == [
        ("outer_s", None), ("leaf_s", 0), ("leaf_s", 0)]
    inclusive, own = rec.totals()
    assert own[("setup", "outer_s")] + own[("setup", "leaf_s")] == pytest.approx(
        inclusive[("setup", "outer_s")], rel=1e-12)
    assert rec.counts[("setup", "calls")] == 1


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert values["ok_ratio"] == 1.0
        assert all(v > 0 for v in values.values())
    if trace and workload == "paper-point":
        parts = ("warp.warp_batch_s", "voting.accumulate_s", "voting.read_and_clear_s",
                 "objective.evaluate_s", "optimizer.self_s")
        assert sum(values[p] for p in parts) == pytest.approx(values["optimizer.span_s"], rel=1e-9)
    if trace:
        assert values["trace.absent_targets"] == 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("paper-point", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
