"""evcm benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload paper-point --seed 1 --seconds 10 --trace 0

Runs the workload in a fresh single-threaded worker process (bench/worker.py)
after SETUP_REPS - 1 set-up-only workers, so ``setup_s`` is the median of
SETUP_REPS fresh-process set-ups. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics. The last
line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
provenance and the worker's report go to standard error. Exits non-zero
without a result when the package source or a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("track-file", "paper-point", "banked-datapath")
SETUP_REPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit for the mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONSTARTUP", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    if not (ROOT / "src" / "evcm" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {ROOT / 'src'}")
    units = declared_metrics(args.trace)
    deadline = time.monotonic() + DEADLINE_S
    reps = 1 if args.trace else SETUP_REPS
    workers = [run_worker(args, True, deadline) for _ in range(reps - 1)]
    out = run_worker(args, False, deadline)
    workers.append(out)
    setups = [w["setup_s"] for w in workers]
    values = dict(out["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    finite = all(math.isfinite(v) for v in values.values())
    prov = dict(out["provenance"], commit=git_commit(ROOT), setup_s_samples=setups,
                setup_wall_s_samples=[w["setup_wall_s"] for w in workers])
    print("provenance: " + json.dumps(prov), file=sys.stderr)
    return {
        "correct": out["failed"] == 0 and finite,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name] if finite else 0.0, "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
