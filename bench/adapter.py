"""Every call the benchmark makes into ``evcm``.

The rest of the benchmark never touches the package directly, so an API
change needs a follow-up in this file only. It uses the names exported by
``evcm/__init__.py``, the ``evcm.cli.main`` entry point behind the ``evcm``
command with flags the README documents, and, for the traced run, the
module attributes that the package's own callers look up.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import evcm
import evcm.cli

SENSOR = (240, 180)
ROI_SIZE = (64, 64)
ITERATIONS = 100
# The tracker advances the ROI by scale * v, but an object moving at v
# covers 2 * v pixels per batch (ROADMAP defect 4a); every test passes 2.0.
ROI_UPDATE_SCALE = 2.0

_OPTIMIZER = evcm.OptimizerConfig(iterations=ITERATIONS)


# --- staging --------------------------------------------------------------

def scene(kind, velocity, start, size, batches, events_per_batch, noise, seed,
          duration_us=20_000):
    """Generate a synthetic scene; returns the package's scene object."""
    return evcm.generate_scene(evcm.SceneConfig(
        scene=kind,
        velocity=tuple(velocity),
        start=tuple(start),
        object_size=size,
        batches=batches,
        events_per_batch=events_per_batch,
        batch_duration_us=duration_us,
        noise_fraction=noise,
        seed=seed,
        sensor=SENSOR,
    ))


def scene_columns(sc):
    """(ts, xs, ys, ps) arrays of a scene."""
    return sc.ts, sc.xs, sc.ys, sc.ps


def write_events(columns, path) -> None:
    """Write (ts, xs, ys, ps) columns as a ``t x y p`` events file."""
    ts, xs, ys, ps = columns
    evcm.SyntheticScene(
        ts, xs, ys, ps, noise_mask=np.zeros(len(ts), dtype=bool), truth={}
    ).write_events(path)


def write_scene(sc, events_path, truth_path) -> None:
    sc.write_events(events_path)
    sc.write_truth(truth_path)


def read_batches(path, batch_size):
    """Parse an events file and cut it into consecutive full batches."""
    events = evcm.parse_events(path, sensor_size=SENSOR)
    return [
        evcm.make_batch(events[i:i + batch_size])
        for i in range(0, len(events) - batch_size + 1, batch_size)
    ]


def roi(center):
    """ROI of the standard size centred on ``center``."""
    w, h = ROI_SIZE
    return evcm.Roi(center[0] - w / 2.0, center[1] - h / 2.0, w, h)


# --- timed operations -----------------------------------------------------

def track_file(events_path, out_dir, roi_origin, batch_size) -> int:
    """``evcm track`` on one file; returns the exit code. The CSV lands in
    ``out_dir/trajectory.csv``."""
    argv = [
        "track", "--input", str(events_path),
        "--batch-size", str(batch_size),
        "--roi-x0", repr(float(roi_origin[0])),
        "--roi-y0", repr(float(roi_origin[1])),
        "--iterations", str(ITERATIONS),
        "--roi-update-scale", repr(ROI_UPDATE_SCALE),
        "--output-dir", str(out_dir),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return evcm.cli.main(argv)


def estimate(batch, region):
    """ROI filter then a standing-start ascent: (roi_batch, velocity, trace)."""
    roi_batch = evcm.filter_roi(batch, region)
    v, trace = evcm.estimate_motion(roi_batch, _OPTIMIZER, shape=ROI_SIZE)
    return roi_batch, v, trace


def banked_accumulator():
    return evcm.BankedAccumulator(ROI_SIZE)


def banked_replay(acc, warped):
    acc.accumulate(warped)
    return acc.read_and_clear()


# --- reading results ------------------------------------------------------

def velocity(v) -> tuple[float, float]:
    return (v.vx, v.vy)


def iterations_run(trace) -> int:
    return len(trace)


def visited_velocities(trace) -> list[tuple[float, float]]:
    """Velocity at which each ascent iteration built its images."""
    return [(r.v.vx, r.v.vy) for r in trace.records]


def n_events(batch) -> int:
    return len(batch)


def warp(batch, v):
    return evcm.warp_batch(batch, evcm.Velocity(*v))


def naive_images(warped):
    acc = evcm.NaiveAccumulator(ROI_SIZE)
    acc.accumulate(warped)
    return acc.read_and_clear()


def in_bounds_mass(roi_batch, v) -> float:
    """Vote mass that lands inside the ROI grid at velocity ``v``."""
    return naive_images(warp(roi_batch, v)).in_bounds_mass


def images_identical(a, b) -> bool:
    """Bit-for-bit equality of two accumulated image sets."""
    return (
        np.array_equal(a.iwe, b.iwe)
        and np.array_equal(a.d_vx, b.d_vx)
        and np.array_equal(a.d_vy, b.d_vy)
        and a.in_bounds_mass == b.in_bounds_mass
    )


def bank_updates(acc) -> tuple[int, tuple[int, ...]]:
    """(updates issued over all roles, per-bank updates of the IWE role)."""
    total = sum(sum(acc.bank_occupancy(role)) for role in ("iwe", "d_vx", "d_vy"))
    return total, tuple(acc.bank_occupancy("iwe"))


TRAJECTORY_HEADER = "batch,x_roi,y_roi,vx,vy,contrast,events_in_roi"


def parse_trajectory(text):
    """Rows of a ``trajectory.csv`` as (x_roi, y_roi, vx, vy, events_in_roi),
    or None when the file is malformed: wrong header, wrong field count, a
    batch index out of order, or a non-finite ROI or velocity."""
    lines = text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        return None
    rows = []
    for b, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 7:
            return None
        try:
            index, n_in = int(fields[0]), int(fields[6])
            x, y, vx, vy = (float(f) for f in fields[1:5])
            float(fields[5])
        except ValueError:
            return None
        if index != b or n_in < 0 or not all(map(math.isfinite, (x, y, vx, vy))):
            return None
        rows.append((x, y, vx, vy, n_in))
    return rows


def next_roi_center(region, v) -> tuple[float, float]:
    """Centre of the ROI the tracker would move to after estimating ``v``."""
    return evcm.update_roi(
        region, evcm.Velocity(*v), ROI_UPDATE_SCALE, sensor=SENSOR
    ).center


def cycle_projection(N, T, n, P) -> tuple[int, float]:
    """(cycles per batch, projected seconds per batch) from the cycle model."""
    params = evcm.CycleParams(N=int(N), T=int(T), n=int(round(n)), P=int(P))
    return evcm.cycles_per_batch(params), evcm.batch_time(params)


def speedup_table(N, T, n, P, host_s) -> str:
    """The cycle model's report of this run's host time and the published
    reference times against the projected FPGA time."""
    params = evcm.CycleParams(N=int(N), T=int(T), n=int(round(n)), P=int(P))
    return evcm.speedup_report(
        params, {"host (this run)": host_s, **evcm.REFERENCE_TIMES}
    )


# --- traced run -----------------------------------------------------------

def _nan_contrast_rows(result) -> int:
    return sum(1 for r in result.records if math.isnan(r.contrast))


# (owner, attribute, span name, counter). The owner is the module or class
# whose attribute the caller looks up; the counter maps (args, result) to
# increments of named counts.
TRACE_TARGETS = [
    ("evcm.cli", "main", "cli.self_s", None),
    ("evcm.cli", "parse_events", "events.parse_s", None),
    ("evcm", "parse_events", "events.parse_s", None),
    ("evcm.cli", "track", "tracker.self_s",
     lambda a, r: {"tracker.batches": len(r.records),
                   "tracker.skipped_batches": _nan_contrast_rows(r)}),
    ("evcm.tracker", "update_roi", "tracker.self_s", None),
    ("evcm", "update_roi", "tracker.self_s", None),
    ("evcm.tracker", "make_batch", "events.make_batch_s", None),
    ("evcm", "make_batch", "events.make_batch_s", None),
    ("evcm.tracker", "filter_roi", "events.filter_roi_s",
     lambda a, r: {"events.roi_in": len(a[0]), "events.roi_kept": len(r)}),
    ("evcm", "filter_roi", "events.filter_roi_s",
     lambda a, r: {"events.roi_in": len(a[0]), "events.roi_kept": len(r)}),
    ("evcm.tracker", "estimate_motion", "optimizer.self_s",
     lambda a, r: {"optimizer.iterations": len(r[1])}),
    ("evcm", "estimate_motion", "optimizer.self_s",
     lambda a, r: {"optimizer.iterations": len(r[1])}),
    ("evcm.optimizer", "warp_batch", "warp.warp_batch_s",
     lambda a, r: {"warp.events": len(a[0])}),
    ("evcm", "warp_batch", "warp.warp_batch_s",
     lambda a, r: {"warp.events": len(a[0])}),
    ("evcm.NaiveAccumulator", "accumulate", "voting.accumulate_s",
     lambda a, r: {"voting.votes": len(a[1])}),
    ("evcm.NaiveAccumulator", "read_and_clear", "voting.read_and_clear_s",
     lambda a, r: {"voting.mass": r.in_bounds_mass}),
    ("evcm.BankedAccumulator", "accumulate", "voting.banked_accumulate_s",
     lambda a, r: {"voting.votes": len(a[1]), "voting.banked_events": len(a[1])}),
    ("evcm.BankedAccumulator", "read_and_clear", "voting.banked_read_s",
     lambda a, r: {"voting.mass": r.in_bounds_mass}),
    ("evcm.optimizer", "evaluate", "objective.evaluate_s",
     lambda a, r: {"objective.calls": 1, "objective.pixels": a[0].iwe.size}),
    ("evcm", "generate_scene", "synth.generate_s", None),
    ("evcm.SyntheticScene", "write_events", "synth.write_s", None),
    ("evcm.SyntheticScene", "write_truth", "synth.write_s", None),
]


def package_file() -> Path:
    return Path(evcm.__file__).resolve()
