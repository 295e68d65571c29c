"""Gradient-ascent loop over the warp -> vote -> contrast pipeline."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .events import EventBatch
from .objective import evaluate
from .voting import ImageSet, NaiveAccumulator
from .warp import Velocity, warp_batch


class OptimizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 100
    learning_rate: float | None = None  # None -> default_learning_rate(n)
    v_init: Velocity = field(default_factory=lambda: Velocity(0.0, 0.0))

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        # chained comparisons are False for NaN, so NaN fails both checks
        if self.learning_rate is not None and not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    v: Velocity          # velocity the images were generated at
    contrast: float
    grad_vx: float
    grad_vy: float


@dataclass
class OptimizationTrace:
    records: list[IterationRecord]
    learning_rate: float
    # pipeline work counters (tie-in for the cycle model):
    vote_ops: int = 0             # events issued to voting, summed over iterations
    readout_addresses: int = 0    # grid addresses read back, summed over iterations

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_contrast(self) -> float:
        return self.records[-1].contrast

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iteration,vx,vy,contrast,grad_vx,grad_vy\n")
        for r in self.records:
            buf.write(
                f"{r.iteration},{r.v.vx!r},{r.v.vy!r},{r.contrast!r},"
                f"{r.grad_vx!r},{r.grad_vy!r}\n"
            )
        return buf.getvalue()


LEARNING_RATE_SCALE = 650.0


def default_learning_rate(n_events: int) -> float:
    """Step size normalized by batch size.

    The per-pixel variance gradient scales roughly with event density, so
    the step is divided by the event count; the numerator was calibrated on
    the synthetic scene suite (largest value that converges from a standing
    start across square and bar scenes at up to 5 px/unit per axis without
    oscillating around the optimum).
    """
    return LEARNING_RATE_SCALE / (n_events + 1)


def estimate_motion(
    batch: EventBatch,
    cfg: OptimizerConfig,
    shape: tuple[int, int],
) -> tuple[Velocity, OptimizationTrace]:
    """Run ``cfg.iterations`` gradient-ascent steps on the (w, h) ROI grid
    ``shape`` and return the final velocity.

    Each iteration warps the batch at the current velocity, accumulates the
    three images, evaluates contrast and gradient, then steps the velocity.
    An iteration whose votes all land outside the grid raises
    ``OptimizationError``: the velocity has run away, and every later step
    would be taken on an empty image.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("cannot estimate motion from an empty batch")
    eta = cfg.learning_rate if cfg.learning_rate is not None else default_learning_rate(n)
    acc = NaiveAccumulator(shape)

    v = cfg.v_init
    records: list[IterationRecord] = []
    for it in range(cfg.iterations):
        warped = warp_batch(batch, v)
        acc.accumulate(warped)
        imgs = acc.read_and_clear()
        if not imgs.in_bounds_mass > 0.0:
            raise OptimizationError(
                f"no vote mass inside the grid at iteration {it}, "
                f"v = ({v.vx:.6g}, {v.vy:.6g}): the ascent diverged or "
                f"started off the grid"
            )
        c, g_vx, g_vy = evaluate(imgs)
        if not (math.isfinite(g_vx) and math.isfinite(g_vy)):
            raise OptimizationError(f"non-finite gradient at iteration {it}")
        records.append(IterationRecord(it, v, c, g_vx, g_vy))
        v = Velocity(v.vx + eta * g_vx, v.vy + eta * g_vy)
    # every iteration votes all n events and reads back every grid address
    trace = OptimizationTrace(
        records=records,
        learning_rate=eta,
        vote_ops=n * cfg.iterations,
        readout_addresses=shape[0] * shape[1] * cfg.iterations,
    )
    return v, trace


def final_image_set(batch: EventBatch, v: Velocity, shape: tuple[int, int]) -> ImageSet:
    """Accumulate one image set at a fixed velocity (diagnostics / dumps)."""
    acc = NaiveAccumulator(shape)
    acc.accumulate(warp_batch(batch, v))
    return acc.read_and_clear()
