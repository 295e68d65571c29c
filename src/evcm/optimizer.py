"""Gradient-ascent loop over the warp -> vote -> contrast pipeline."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .events import EventBatch
from .objective import contrast, evaluate
from .voting import IweScatter
from .warp import Velocity, warp_batch


# Each axis's first step, px per half-span: it moves the events at the batch
# edges (|dt| = 1) by one bilinear kernel width.
FIRST_STEP = 1.0
# Once both axes' steps are below this after a step's moves (at least six
# halvings each), both are cleared to 0: v moves less than 2^-6 px per
# half-span per step by then, and the next readout meets the fixed-point exit.
LEAST_STEP = FIRST_STEP / 64


class OptimizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    """``iterations`` ascent steps from ``v_init``. The step is not a setting:
    each axis starts at ``FIRST_STEP`` and halves at its sign flips."""

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
    """One record per ascent step, the IWE read out at the velocity the
    ascent returns (after the last step, or at the fixed point it stopped
    reading out at), and the number of IWE scatters run: one per distinct
    velocity read out, plus a closing one at a returned velocity whose IWE
    the grid no longer holds (at most ``len(records) + 1``)."""

    records: list[IterationRecord]
    final_iwe: np.ndarray
    readouts: int

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_contrast(self) -> float:
        """Contrast at the returned velocity."""
        return contrast(self.final_iwe)[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iteration,vx,vy,contrast,grad_vx,grad_vy\n")
        for i, r in enumerate(self.records):
            buf.write(
                f"{i},{r.v.vx!r},{r.v.vy!r},{r.contrast!r},"
                f"{r.grad_vx!r},{r.grad_vy!r}\n"
            )
        return buf.getvalue()


def estimate_motion(
    batch: EventBatch,
    cfg: OptimizerConfig,
    shape: tuple[int, int],
) -> tuple[Velocity, OptimizationTrace]:
    """Run up to ``cfg.iterations`` ascent steps on the (w, h) ROI grid
    ``shape`` and return the final velocity.

    Each iteration warps the batch at the current velocity, scatters the
    IWE, gathers contrast and gradient from it, then moves each axis by its
    own step toward its gradient's sign (not at all on a zero gradient).
    Each axis's step starts at the constant ``FIRST_STEP`` and halves when
    its gradient sign flips (Rprop's rule, Riedmiller & Braun 1993, cut down
    to a halving), so it needs no calibration to the batch and no divide:
    in hardware, a wired constant and a shift. Once both axes' steps are
    below ``LEAST_STEP`` after a step's moves, both are cleared to 0.
    A closing readout at the returned velocity gives the trace's
    ``final_iwe`` and ``final_contrast``. A readout whose votes all land
    outside the grid, the closing one included, raises
    ``OptimizationError``: the velocity has run away. So does a readout at
    a velocity beyond the grid (|vx| > w or |vy| > h px per half-span) that
    leaves some vote mass on it.

    A step that leaves the velocity unchanged (each axis at a zero
    gradient, a cleared step or a step below half an ulp of v) reaches a
    fixed point, where every later readout would repeat this one bit for
    bit. The ascent reads out no more: the remaining records repeat this
    step's at the returned velocity and ``final_iwe`` is this step's IWE,
    the outputs that all ``cfg.iterations + 1`` readouts give. The first
    readout after the floor is such a fixed point, so ``cfg.iterations`` is
    a cap and the trace keeps ``cfg.iterations`` records.

    A readout depends only on the batch, the grid and v, and the steps move
    on a dyadic lattice, so an ascent often steps back onto a velocity it
    has read out. A per-call table keyed by ``(v.vx, v.vy)`` holds each
    readout's contrast and gradient, and such a step reuses its row with no
    warp, scatter or gather; the outputs are those of a readout at every
    step, bit for bit. When the ascent returns a velocity whose IWE the grid
    no longer holds (a cap reached on a table hit), one more scatter at it
    gives ``final_iwe``. ``trace.readouts`` counts the scatters run.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("cannot estimate motion from an empty batch")
    grid = IweScatter(n, shape)
    w, h = shape
    # (c, g_vx, g_vy) of every velocity read out, keyed by (vx, vy); the keys
    # -0.0 and 0.0 collide, and their warps are bit-equal
    rows: dict[tuple[float, float], tuple[float, float, float]] = {}
    held = None  # the key of the velocity whose IWE grid holds
    readouts = 0

    v = cfg.v_init
    steps = [FIRST_STEP, FIRST_STEP]
    signs = [0, 0]
    records: list[IterationRecord] = []
    for it in range(cfg.iterations + 1):
        key = (v.vx, v.vy)
        row = rows.get(key)
        if row is None:
            grid.scatter(warp_batch(batch, v))
            readouts += 1
            held = key
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
        if it == cfg.iterations:
            break
        if row is None:
            row = rows[key] = evaluate(grid)
            if not (math.isfinite(row[1]) and math.isfinite(row[2])):
                raise OptimizationError(f"non-finite gradient at iteration {it}")
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
    if held != (v.vx, v.vy):
        # the ascent ended on a table hit; its velocity was checked when first
        # read out, and final_iwe needs its IWE
        grid.scatter(warp_batch(batch, v))
        readouts += 1
    return v, OptimizationTrace(records, grid.iwe, readouts)
