"""One benchmark workload in one fresh, single-threaded process.

Stages the inputs, warms up, then runs the workload's operation in a closed
loop (one caller, each call waits for the previous one) and checks every
output outside the timed region. Prints one JSON line with the set-up time,
the operation tallies and the raw metric values; ``run.py`` starts it and
adds units.

    python3 bench/worker.py --workload paper-point --seed 1 --seconds 10 \
        --trace 0 [--setup-only]
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import adapter  # noqa: E402
from spans import Recorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
P = adapter.ROI_SIZE[0] * adapter.ROI_SIZE[1]
BATCH_DURATION_US = 20_000


def within_tolerance(est, true) -> bool:
    """Acceptance criterion 5: each axis within 5% of truth, or 0.05."""
    return all(abs(e - t) <= max(0.05, 0.05 * abs(t)) for e, t in zip(est, true))


# --- staging shared by paper-point and banked-datapath ---------------------

@dataclass
class Case:
    batch: object                  # full N-event batch
    region: object                 # ROI centred on the object's start
    v_true: tuple[float, float]
    end_center: tuple[float, float]


def stage_cases(seed, workdir, count, n_events=5000, n_object=800):
    """``count`` batches of ``n_events`` events: a square object of
    ``n_object`` events inside a 64x64 ROI plus a noisy distractor on the
    other side of the sensor, merged by timestamp. True velocities come from
    a jittered kx x ky grid over [-5, 5]^2 (kx * ky = ``count``), which
    covers the range evenly for every seed, so the mean error of a run does
    not hang on a few draws. All batches go through one events file."""
    kx = math.isqrt(count)
    while count % kx:
        kx -= 1
    ky = count // kx
    rng = np.random.default_rng(seed)
    columns, truths = [], []
    for b, cell in enumerate(rng.permutation(count)):
        i, j = divmod(int(cell), ky)
        v = (-5.0 + 10.0 * (i + rng.random()) / kx, -5.0 + 10.0 * (j + rng.random()) / ky)
        start = (rng.uniform(40.0, 90.0), rng.uniform(40.0, 140.0))
        obj = adapter.scene("square", v, start, 24, 1, n_object, 0.0,
                            seed=int(rng.integers(2**31)))
        distractor = adapter.scene(
            "points", rng.uniform(-5.0, 5.0, 2),
            (rng.uniform(160.0, 200.0), rng.uniform(40.0, 140.0)),
            30, 1, n_events - n_object, 0.05, seed=int(rng.integers(2**31)))
        parts = [adapter.scene_columns(obj), adapter.scene_columns(distractor)]
        ts = np.concatenate([p[0] for p in parts])
        order = np.argsort(ts, kind="stable")
        columns.append([ts[order] + b * BATCH_DURATION_US]
                       + [np.concatenate([p[c] for p in parts])[order] for c in (1, 2, 3)])
        truths.append((v, start))
    path = workdir / "events.txt"
    adapter.write_events([np.concatenate(c) for c in zip(*columns)], path)
    batches = adapter.read_batches(path, n_events)
    return [
        Case(batch, adapter.roi(start), v, (start[0] + 2 * v[0], start[1] + 2 * v[1]))
        for batch, (v, start) in zip(batches, truths)
    ]


class Quality:
    """Per-input accuracy records; each input's record is overwritten by
    its repeats, so the summary weighs every input once."""

    def __init__(self):
        self.by_key = {}

    def record(self, key, velocity_errs, track_errs, within):
        self.by_key[key] = (velocity_errs, track_errs, within)

    def summary(self):
        columns = list(zip(*self.by_key.values())) or [[[0.0]]] * 3
        velocity, track, within = (statistics.fmean(itertools.chain(*c)) for c in columns)
        return {"velocity_err": velocity, "track_err_px": track, "within_tol": within}


def record_estimate(quality, key, case, v_hat):
    err = math.hypot(v_hat[0] - case.v_true[0], v_hat[1] - case.v_true[1])
    cx, cy = adapter.next_roi_center(case.region, v_hat)
    track_err = math.hypot(cx - case.end_center[0], cy - case.end_center[1])
    quality.record(key, [err], [track_err], [within_tolerance(v_hat, case.v_true)])


# --- workloads ------------------------------------------------------------

class Workload:
    """What the closed loop needs of a workload: ``keys`` (the inputs of
    one pass), ``run`` (the timed call), ``check`` (its untimed output
    check), ``events`` per call, ``quality`` and ``cycle_params``."""

    batches_per_op = 1
    numpy_scalars = True  # which host-speed kernel tracks this workload

    def warm_up(self):
        if not self.check(self.keys[0], self.run(self.keys[0])):
            raise RuntimeError("warm-up operation failed its check")

    def host_seconds(self, tally):
        """Raw wall seconds per batch, the median over inputs."""
        return statistics.median(tally.batch_ms(self, scaled=False)) / 1e3

    def end_pass(self):
        """Counters of the pass just run."""
        return {}


class TrackFile(Workload):
    """``evcm track`` from an events file to trajectory.csv. Each operation
    tracks one of FILES files of the README's square scene, BATCHES batches
    of 10k events at 5% noise; the seed drives the sampling of every file."""

    FILES = 8
    BATCHES = 5
    BATCH_EVENTS = 10_000
    VELOCITY = (3.0, -2.0)
    START = (50.0, 100.0)
    batches_per_op = BATCHES
    numpy_scalars = False

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.dirs = []
        for k in range(self.FILES):
            d = workdir / f"scene{k}"
            d.mkdir(parents=True)
            sc = adapter.scene("square", self.VELOCITY, self.START, 24, self.BATCHES,
                               self.BATCH_EVENTS, 0.05, seed=int(rng.integers(2**31)))
            adapter.write_scene(sc, d / "events.txt", d / "truth.json")
            self.dirs.append(d)
        self.keys = list(range(self.FILES))
        w, h = adapter.ROI_SIZE
        self.roi_origin = (self.START[0] - w / 2, self.START[1] - h / 2)
        self.out = workdir / "out"
        self.quality = Quality()
        self.roi_events = {}

    def run(self, k):
        return adapter.track_file(self.dirs[k] / "events.txt", self.out,
                                  self.roi_origin, self.BATCH_EVENTS)

    def events(self, k):
        return self.BATCHES * self.BATCH_EVENTS

    def check(self, k, code):
        csv = self.out / "trajectory.csv"
        text = csv.read_text(encoding="ascii") if csv.is_file() else ""
        csv.unlink(missing_ok=True)
        rows = adapter.parse_trajectory(text)
        if code != 0 or rows is None or len(rows) != self.BATCHES:
            return False
        truth = json.loads((self.dirs[k] / "truth.json").read_text(encoding="ascii"))
        v_true = truth["velocity_norm"]
        w, h = adapter.ROI_SIZE
        # row b holds the ROI that filtered batch b, so its centre should sit
        # on the object's centre at the end of batch b - 1; row 0 is the
        # benchmark's own initial ROI and is left out
        track_errs = [
            math.hypot(x + w / 2 - c["cx"], y + h / 2 - c["cy"])
            for (x, y, *_), c in zip(rows[1:], truth["centers"])
        ]
        self.quality.record(
            k,
            [math.hypot(r[2] - v_true[0], r[3] - v_true[1]) for r in rows],
            track_errs,
            [within_tolerance(r[2:4], v_true) for r in rows],
        )
        self.roi_events[k] = statistics.fmean(r[4] for r in rows)
        return True

    def cycle_params(self):
        return self.BATCH_EVENTS, adapter.ITERATIONS, statistics.fmean(self.roi_events.values())


class PaperPoint(Workload):
    """filter_roi + estimate_motion from a standing start on in-memory
    batches at the paper's operating point: N=5000, ~800 in a 64x64 ROI,
    T=100."""

    BATCHES = 100  # p90 over batches needs ten beyond it

    def __init__(self, seed, workdir):
        self.cases = stage_cases(seed, workdir, self.BATCHES)
        self.n_events = [adapter.n_events(c.batch) for c in self.cases]
        self.keys = list(range(self.BATCHES))
        self.quality = Quality()
        self.roi_events = {}
        self.iterations = {}

    def run(self, k):
        return adapter.estimate(self.cases[k].batch, self.cases[k].region)

    def events(self, k):
        return self.n_events[k]

    def check(self, k, out):
        roi_batch, v, trace = out
        v_hat = adapter.velocity(v)
        if not all(map(math.isfinite, v_hat)) or not adapter.in_bounds_mass(roi_batch, v_hat) > 0:
            return False
        record_estimate(self.quality, k, self.cases[k], v_hat)
        self.roi_events[k] = adapter.n_events(roi_batch)
        self.iterations[k] = adapter.iterations_run(trace)
        return True

    def cycle_params(self):
        return (statistics.fmean(self.n_events), statistics.fmean(self.iterations.values()),
                statistics.fmean(self.roi_events.values()))


class BankedDatapath(Workload):
    """BankedAccumulator.accumulate + read_and_clear replaying warped ROI
    batches from v=0 to focus; each result is compared bit for bit with
    NaiveAccumulator outside the timed region.

    For each of BATCHES paper-point batches the replay holds the velocities
    the standing-start ascent visits (iterations 0, 33, 66, 99) and the
    straight path on from its end to the true velocity (the ascent itself
    stays near v=0 at the default learning rate), so spread-out and focused
    streams are both replayed."""

    BATCHES = 16
    VISITED = (0, 33, 66, 99)
    PATH = (0.25, 0.5, 0.75, 1.0)

    def __init__(self, seed, workdir):
        cases = stage_cases(seed, workdir, self.BATCHES)
        self.quality = Quality()
        self.replays = []  # (warped batch, naive reference, events)
        roi_events = []
        for k, case in enumerate(cases):
            roi_batch, v, trace = adapter.estimate(case.batch, case.region)
            v_hat = adapter.velocity(v)
            record_estimate(self.quality, k, case, v_hat)
            roi_events.append(adapter.n_events(roi_batch))
            visited = adapter.visited_velocities(trace)
            path = [tuple(h + f * (t - h) for h, t in zip(v_hat, case.v_true))
                    for f in self.PATH]
            for vel in [visited[i] for i in self.VISITED] + path:
                warped = adapter.warp(roi_batch, vel)
                self.replays.append(
                    (warped, adapter.naive_images(warped), adapter.n_events(warped)))
        self.n_batch = adapter.n_events(cases[0].batch)
        self.n_roi = statistics.fmean(roi_events)
        self.keys = list(range(len(self.replays)))
        self.acc = adapter.banked_accumulator()

    def run(self, k):
        return adapter.banked_replay(self.acc, self.replays[k][0])

    def events(self, k):
        return self.replays[k][2]

    def check(self, k, out):
        return adapter.images_identical(out, self.replays[k][1])

    def cycle_params(self):
        return self.n_batch, adapter.ITERATIONS, self.n_roi

    def host_seconds(self, tally):
        # one replay is one iteration's voting and readout; a batch takes T
        return super().host_seconds(tally) * adapter.ITERATIONS

    def end_pass(self):
        """Bank counters of the pass just run; starts a fresh accumulator."""
        updates, iwe_banks = adapter.bank_updates(self.acc)
        self.acc = adapter.banked_accumulator()
        return {"voting.banked_updates": updates,
                "voting.bank_imbalance": max(iwe_banks) / statistics.fmean(iwe_banks)}


WORKLOADS = {"track-file": TrackFile, "paper-point": PaperPoint,
             "banked-datapath": BankedDatapath}


# --- the closed loop ------------------------------------------------------

# Host-speed reference. The host's speed swings by up to 1.7x in phases that
# last seconds to minutes, and a kernel doing the same kind of work slows
# down with evcm. In a 150-second probe of banked replays, the median call
# per 10-second window ranged from 11.6 to 20.2 ms while its ratio to the
# numpy-scalar kernel varied by 5% (13% against the integer kernel). Over
# ten runs, track-file's spread was 6% against the integer kernel and 16%
# against the numpy-scalar one. So every reported time is scaled to the
# reference speed: wall time times CAL_REF_S over the time of the
# workload's kernel measured next to it. The kernels are benchmark code;
# changing them or CAL_REF_S rescales every time metric.
CAL_REF_S = 2.0e-3
_CAL_IDX = (np.arange(20_000) * 7919) % 4096
_CAL_W = np.linspace(0.0, 1.0, 20_000)
_CAL_GRID = _CAL_W.reshape(100, 200)


def calibration_s(numpy_scalars: bool) -> float:
    """Wall time of one run of a host-speed reference kernel: a numpy
    scatter-add, tuple allocation and an interpreter loop, either over
    Python integers or over numpy scalars through a short deque."""
    t0 = time.perf_counter()
    grid = np.zeros(4096)
    np.add.at(grid, _CAL_IDX, _CAL_W)
    if numpy_scalars:
        window = deque()
        for k in range(3000):
            value = _CAL_GRID[k % 100, k % 200]
            if value != 0.0:
                window.append((k, value + 1.0))
            if len(window) > 3:
                window.popleft()
    else:
        total = 0
        for i in range(20_000):
            total += i * i % 7
    pairs = [(i, float(i)) for i in range(5_000)]
    del grid, pairs
    return time.perf_counter() - t0


def calibration_median_s(numpy_scalars: bool, reps=5) -> float:
    return statistics.median(calibration_s(numpy_scalars) for _ in range(reps))


class Tally:
    """Call times per input, and operations attempted and failed.

    Each call's wall time is scaled to the reference host speed by the mean
    of the workload's kernel times measured just before and just after it
    (each the median of several kernel runs after a long call). An input's
    time is the median over its calls; timings are medians and percentiles
    over inputs."""

    def __init__(self):
        self.wall = {}    # key -> [wall seconds]
        self.scaled = {}  # key -> [seconds at the reference host speed]
        self.attempted = 0
        self.failed = 0
        self._cal = None

    def op(self, wl, key, rec=None):
        """Run one operation, time it, then check its output untimed. An
        operation fails when it raises or its output fails the check."""
        if self._cal is None:
            self._cal = calibration_s(wl.numpy_scalars)
        if rec is not None:
            rec.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(key)
            raised = False
        except Exception:
            raised = True
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.active = False
        # a long call gets more kernel runs, up to 2% of its time
        reps = min(9, 1 + int(dt / 0.1))
        cal = statistics.median(calibration_s(wl.numpy_scalars) for _ in range(reps))
        self.wall.setdefault(key, []).append(dt)
        self.scaled.setdefault(key, []).append(dt * CAL_REF_S * 2 / (self._cal + cal))
        self._cal = cal
        if raised:
            ok = False
            traceback.print_exc(file=sys.stderr)
        else:
            try:
                ok = bool(wl.check(key, out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        self.attempted += 1
        self.failed += not ok

    def calls(self):
        return sum(map(len, self.wall.values()))

    def total(self, scaled=True):
        return sum(map(sum, (self.scaled if scaled else self.wall).values()))

    def batch_ms(self, wl, scaled=True):
        """Median call per input, in milliseconds per batch."""
        table = self.scaled if scaled else self.wall
        return [statistics.median(t) * 1e3 / wl.batches_per_op for t in table.values()]

    def events_per_s(self, wl):
        """Median over inputs of an input's events over its time."""
        return statistics.median(wl.events(k) / statistics.median(t)
                                 for k, t in self.scaled.items())


MIN_PASSES = 3


def measure(wl, seconds):
    """Cycle through the inputs until ``seconds`` have passed and every
    input has run at least MIN_PASSES times."""
    tally = Tally()
    n_min = MIN_PASSES * len(wl.keys)
    start = time.perf_counter()
    k = 0
    while k < n_min or time.perf_counter() - start < seconds:
        tally.op(wl, wl.keys[k % len(wl.keys)])
        k += 1
    return tally


def measure_traced(wl, seconds, rec):
    """Alternate whole untraced and traced passes over the inputs until
    ``seconds`` have passed; returns (untraced, traced, passes, counters)."""
    plain, traced = Tally(), Tally()
    rec.phase = "pass"
    counters = {}
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for key in wl.keys:
            plain.op(wl, key)
        wl.end_pass()
        rec.install(adapter.TRACE_TARGETS)
        try:
            for key in wl.keys:
                traced.op(wl, key, rec)
        finally:
            rec.uninstall()
        for name, value in wl.end_pass().items():
            counters[name] = counters.get(name, 0.0) + value
        passes += 1
    return plain, traced, passes, {k: v / passes for k, v in counters.items()}


# --- metrics --------------------------------------------------------------

def end_to_end(wl, tally):
    q = wl.quality.summary()
    return {
        "events_per_s": tally.events_per_s(wl),
        "batch_ms_p50": statistics.median(tally.batch_ms(wl)),
        "batch_ms_p90": statistics.quantiles(tally.batch_ms(wl), n=10, method="inclusive")[-1],
        "velocity_err": q["velocity_err"],
        "track_err_px": q["track_err_px"],
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


SELF_TIME_METRICS = (
    "events.parse_s", "events.make_batch_s", "events.filter_roi_s",
    "tracker.self_s", "cli.self_s", "synth.generate_s", "synth.write_s",
    "warp.warp_batch_s", "voting.accumulate_s", "voting.read_and_clear_s",
    "voting.banked_accumulate_s", "voting.banked_read_s",
    "objective.evaluate_s", "optimizer.self_s",
)
COUNT_METRICS = (
    "warp.events", "voting.votes", "objective.calls", "objective.pixels",
    "optimizer.iterations", "tracker.batches", "tracker.skipped_batches",
)


def per_layer(wl, rec, plain, traced, passes, pass_counters):
    """Layer metrics over one traced staging plus one traced pass."""
    inclusive, own = rec.totals()

    def per_run(table, key):
        return table.get(("setup", key), 0.0) + table.get(("pass", key), 0.0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: per_run(own, name) for name in SELF_TIME_METRICS}
    out["optimizer.span_s"] = per_run(inclusive, "optimizer.self_s")
    counts = {name: per_run(rec.counts, name) for name in COUNT_METRICS}
    out.update(counts)
    out["events.roi_keep_ratio"] = ratio(per_run(rec.counts, "events.roi_kept"),
                                         per_run(rec.counts, "events.roi_in"))
    out["voting.in_bounds_ratio"] = ratio(per_run(rec.counts, "voting.mass"),
                                          counts["voting.votes"])
    updates = pass_counters.get("voting.banked_updates", 0.0)
    out["voting.banked_updates"] = updates
    out["voting.updates_per_event"] = ratio(
        updates, per_run(rec.counts, "voting.banked_events"))
    out["voting.bank_imbalance"] = pass_counters.get("voting.bank_imbalance", 0.0)
    out["optimizer.within_tol_ratio"] = wl.quality.summary()["within_tol"]

    N, T, n = wl.cycle_params()
    cycles, fpga_s = adapter.cycle_projection(N, T, n, P)
    host_s = wl.host_seconds(plain)
    out["cyclemodel.cycles_per_batch"] = float(cycles)
    out["cyclemodel.fpga_ms"] = fpga_s * 1e3
    out["cyclemodel.host_ms"] = host_s * 1e3
    out["cyclemodel.host_over_fpga"] = host_s / fpga_s
    out["trace.overhead_ratio"] = traced.total() / plain.total()
    out["trace.absent_targets"] = float(len(rec.absent))
    print(f"cycle model at N={N:g} T={T:g} n={n:.1f} P={P}:\n"
          + adapter.speedup_table(N, T, n, P, host_s), file=sys.stderr, end="")
    return out


def run_timed(wl, args, rec):
    """The timed section: (attempted, failed, metrics)."""
    if rec is None:
        tally = measure(wl, args.seconds)
        print(f"{len(tally.wall)} inputs, {tally.calls()} timed calls, "
              f"{tally.total(scaled=False):.2f} s wall, "
              f"{tally.total():.2f} s at the reference host speed", file=sys.stderr)
        return tally.attempted, tally.failed, end_to_end(wl, tally)
    plain, traced, passes, counters = measure_traced(wl, args.seconds, rec)
    metrics = per_layer(wl, rec, plain, traced, passes, counters)
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.csv"
    rec.write_csv(spans_path)
    if rec.absent:
        print("absent trace targets: " + ", ".join(rec.absent), file=sys.stderr)
    print(f"spans: {len(rec.spans)} written to {spans_path}", file=sys.stderr)
    return (plain.attempted + traced.attempted, plain.failed + traced.failed, metrics)


def provenance(seed, workload):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if src not in adapter.package_file().parents:
        print(f"error: evcm imported from {adapter.package_file()}, not {src}",
              file=sys.stderr)
        return 2

    numpy_scalars = WORKLOADS[args.workload].numpy_scalars
    t_cal = time.perf_counter()
    cal_before = calibration_median_s(numpy_scalars)
    t_cal = time.perf_counter() - t_cal
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rec = Recorder() if args.trace else None
    try:
        if rec is not None:
            rec.install(adapter.TRACE_TARGETS)
            rec.active = True
        try:
            wl = WORKLOADS[args.workload](args.seed, workdir)
        finally:
            if rec is not None:
                rec.active = False
                rec.uninstall()
        wl.warm_up()
        setup_s = time.perf_counter() - T0 - t_cal
        cal = (cal_before + calibration_median_s(numpy_scalars)) / 2
        result = {"setup_s": setup_s * CAL_REF_S / cal, "setup_wall_s": setup_s}
        if not args.setup_only:
            attempted, failed, metrics = run_timed(wl, args, rec)
            print(f"{args.workload}: {attempted} operations, {failed} failed", file=sys.stderr)
            result.update(attempted=attempted, failed=failed, metrics=metrics,
                          provenance=provenance(args.seed, args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
