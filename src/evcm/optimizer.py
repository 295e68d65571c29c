"""Gradient-ascent loop over the warp -> vote -> contrast pipeline."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .events import EventBatch
from .objective import evaluate
from .voting import IweScatter
from .warp import Velocity, warp_batch


# Each axis's first step, px per half-span: it moves the events at the batch
# edges (|dt| = 1) by one bilinear kernel width.
FIRST_STEP = 1.0
# Each axis's first step from a warm start, the previous batch's estimate.
# From a v0 within 1/4 px per half-span of the peak on both axes, a
# FIRST_STEP ascent with first signs s reads out v0 + s and v0 + s/2, then
# steps back exactly onto v0 (every velocity is dyadic), a table hit, and
# then stands at v0 + s/4 with step 1/4 and last sign s. A WARM_STEP ascent
# is in that state after its first readout, two readouts sooner, and from
# there the two ascents and their results are the same.
WARM_STEP = FIRST_STEP / 4
# Once both axes' steps are below this after a step's moves (at least six
# halvings each), both are cleared to 0: v moves less than 2^-6 px per
# half-span per step by then, and the next readout meets the fixed-point exit.
LEAST_STEP = FIRST_STEP / 64


class OptimizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    """``iterations`` ascent steps from ``v_init``. The step is not a setting:
    each axis starts at ``FIRST_STEP`` (``WARM_STEP`` from a warm start) and
    halves at its sign flips."""

    iterations: int = 100
    v_init: Velocity = field(default_factory=lambda: Velocity(0.0, 0.0))

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """One ascent step; its position in the trace's records is its iteration."""

    v: Velocity          # velocity the images were generated at
    contrast: float
    grad_vx: float
    grad_vy: float


@dataclass
class OptimizationTrace:
    """One record per ascent step, the IWE and contrast read out at the
    velocity the ascent returns (after the last step, or at the fixed point
    it stopped reading out at), and the number of readouts run: one per
    distinct velocity read out, plus a closing one at a returned velocity
    whose IWE the grid no longer holds (at most ``len(records) + 1``)."""

    records: list[IterationRecord]
    final_iwe: np.ndarray
    final_contrast: float
    readouts: int

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iteration,vx,vy,contrast,grad_vx,grad_vy\n")
        for i, r in enumerate(self.records):
            buf.write(
                f"{i},{r.v.vx!r},{r.v.vy!r},{r.contrast!r},"
                f"{r.grad_vx!r},{r.grad_vy!r}\n"
            )
        return buf.getvalue()


def _read_out(grid: IweScatter, batch: EventBatch, v: Velocity, it: int,
              warped: np.ndarray) -> tuple[float, float, float]:
    """Read out ``batch`` at ``v``: scatter its IWE into ``grid``, the warp
    written into the (2, n) buffer ``warped``, and return the row
    ``(c, g_vx, g_vy)`` of ``evaluate``. Raise ``OptimizationError`` at
    step ``it`` when ``v`` has run away (no vote mass is left on the grid,
    or |v| exceeds the grid's sides) or the gradient is not finite."""
    grid.scatter(warp_batch(batch, v, out=warped))
    w, h = grid.shape
    if not grid.in_bounds_mass > 0.0:
        raise OptimizationError(
            f"no vote mass inside the grid at iteration {it}, "
            f"v = ({v.vx:.6g}, {v.vy:.6g}): the ascent diverged or "
            f"started off the grid"
        )
    if abs(v.vx) > w or abs(v.vy) > h:
        raise OptimizationError(
            f"velocity beyond the {w}x{h} grid at iteration {it}, "
            f"v = ({v.vx:.6g}, {v.vy:.6g}) px per half-span: the ascent "
            f"diverged or started off the grid"
        )
    row = evaluate(grid)
    if not (math.isfinite(row[1]) and math.isfinite(row[2])):
        raise OptimizationError(f"non-finite gradient at iteration {it}")
    return row


def estimate_motion(
    batch: EventBatch,
    cfg: OptimizerConfig,
    shape: tuple[int, int],
    *,
    warm: bool = False,
) -> tuple[Velocity, OptimizationTrace]:
    """Run up to ``cfg.iterations`` ascent steps on the (w, h) ROI grid
    ``shape`` and return the final velocity.

    Step rule: each step moves each axis by its own step toward its
    gradient's sign (not at all on a zero gradient). A step starts at the
    constant ``FIRST_STEP`` and halves when its axis's gradient sign flips
    (Rprop's rule, Riedmiller & Braun 1993, cut down to a halving), so it
    needs no calibration to the batch and no divide: in hardware, a wired
    constant and a shift. ``warm`` says that ``cfg.v_init`` is the previous
    batch's estimate, as ``track`` passes it after its first estimate; the
    steps then start at ``WARM_STEP``, skipping the two readouts of the
    detour that a ``FIRST_STEP`` ascent from near the peak makes back to
    ``v_init``. Every other start (a standing start, a ``--vx-init`` prior,
    the first tracked batch) keeps ``FIRST_STEP``.

    Floor: once both steps are below ``LEAST_STEP`` after a step's moves,
    both are cleared to 0. A step that leaves v unchanged (each axis at a
    zero gradient, a cleared step or a step below half an ulp of v) is a
    fixed point, where every later step would repeat it bit for bit, and
    the remaining records repeat its row. The step after the floor is one,
    so ``cfg.iterations`` is a cap and the trace keeps ``cfg.iterations``
    records.

    Table: a readout (``_read_out``: warp, scatter, the run-away checks,
    then contrast and gradient) depends only on the batch, the grid and v,
    and the steps move on a dyadic lattice, so an ascent often steps back
    onto a velocity it has read out. A per-call table keyed by
    ``(v.vx, v.vy)`` holds each readout's row ``(c, g_vx, g_vy)``, and such
    a step reuses its row with no readout.

    Closing readout: ``final_contrast`` is the row of the returned velocity.
    When the grid does not hold its IWE (the last step moved, or the ascent
    ended on a table hit), one more full readout at it gives ``final_iwe``
    and that row. ``trace.readouts`` is one per distinct velocity read out,
    plus the closing one. Every output is bit for bit the one a readout at
    every step and at the returned velocity gives.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("cannot estimate motion from an empty batch")
    grid = IweScatter(n, shape)
    warped = np.empty((2, n))
    # (c, g_vx, g_vy) of every velocity read out, keyed by (vx, vy); the keys
    # -0.0 and 0.0 collide, and their warps are bit-equal
    rows: dict[tuple[float, float], tuple[float, float, float]] = {}
    held = None  # the key of the velocity whose IWE grid holds

    v = cfg.v_init
    steps = [WARM_STEP, WARM_STEP] if warm else [FIRST_STEP, FIRST_STEP]
    signs = [0, 0]
    records: list[IterationRecord] = []
    for it in range(cfg.iterations):
        key = (v.vx, v.vy)
        row = rows.get(key)
        if row is None:
            row = rows[key] = _read_out(grid, batch, v, it, warped)
            held = key
        c, g_vx, g_vy = row
        records.append(IterationRecord(v, c, g_vx, g_vy))
        pos = [v.vx, v.vy]
        for axis, g in enumerate((g_vx, g_vy)):
            sign = (g > 0) - (g < 0)
            if sign * signs[axis] < 0:
                steps[axis] *= 0.5
            signs[axis] = sign
            pos[axis] += sign * steps[axis]
        if max(steps) < LEAST_STEP:
            steps = [0.0, 0.0]
        v, v_prev = Velocity(*pos), v
        if v == v_prev:
            # a fixed point: the next readout is this one, whose signs halve
            # no step and move nowhere, so every later step repeats this row
            records += [IterationRecord(v, c, g_vx, g_vy)] * (cfg.iterations - it - 1)
            break
    closing = held != (v.vx, v.vy)
    row = _read_out(grid, batch, v, cfg.iterations, warped) if closing else rows[held]
    return v, OptimizationTrace(records, grid.iwe, row[0], len(rows) + closing)
