"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py                       # all workloads, seeds 1..10
    python3 bench/prove.py --workloads paper-point --seeds 5
    python3 bench/prove.py --record              # also append a point to
                                                 # bench/trajectory.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A spread
at or above a third of the bound is flagged: the benchmark is not steady
enough there. With one seed it is a single pass over every workload that
checks all outputs and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    prov = next(json.loads(ln.split(": ", 1)[1]) for ln in proc.stderr.splitlines()
                if ln.startswith("provenance: "))
    return result, prov


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all",
                    help="comma-separated workload names, or 'all'")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--record", action="store_true",
                    help="append medians and one traced run per workload to trajectory.json")
    args = ap.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    point = {"workloads": {}}
    steady = correct = True
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            result, prov = run_once(name, seed, args.seconds, 0)
            correct &= result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                             for k, v in result["metrics"].items()), flush=True)
        point["provenance"] = {k: v for k, v in prov.items()
                               if k not in ("workload", "seed", "setup_s_samples",
                                            "setup_wall_s_samples")}
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = summary[metric] = summarize(values) if len(values) > 1 else {"median": values[0]}
            if len(values) > 1:
                flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- not steady"
                steady &= not flag
                print(f"  {metric:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bound}){flag}")
        point["workloads"][name] = {"end_to_end": summary}
        if args.record:
            traced, _ = run_once(name, 1, args.seconds, 1)
            correct &= traced["correct"]
            point["workloads"][name]["per_layer_seed1"] = {
                k: v["value"] for k, v in traced["metrics"].items()}

    if args.record:
        point.update(date=datetime.date.today().isoformat(),
                     seeds=list(range(1, args.seeds + 1)), seconds=args.seconds)
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    print(f"correct={correct} steady={steady}")
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
