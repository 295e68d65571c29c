"""Warp events to the batch reference time under a 2D constant-velocity model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventBatch


@dataclass(frozen=True)
class Velocity:
    """Motion parameters in pixels per normalized time unit."""

    vx: float
    vy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError(f"velocity must be finite, got ({self.vx}, {self.vy})")


@dataclass(frozen=True)
class WarpedBatch:
    """Column-oriented warped batch: sub-pixel, ROI-local coordinates, held
    as the rows x', y' of one (2, n) block."""

    xy: np.ndarray   # (2, n) float64
    dts: np.ndarray  # float64, normalized

    @property
    def xs(self) -> np.ndarray:
        return self.xy[0]

    @property
    def ys(self) -> np.ndarray:
        return self.xy[1]

    def __len__(self) -> int:
        return int(self.dts.shape[0])


def warp_batch(batch: EventBatch, v: Velocity, out: np.ndarray | None = None) -> WarpedBatch:
    """Warp every event in the batch: x' = x - dt*vx, y' = y - dt*vy; order
    preserved, coordinates unclamped. The rows are written into ``out``, a
    (2, n) float64 buffer, when one is given, so a caller that warps the
    same batch at many velocities allocates nothing sized by n."""
    dts = batch.norm_dts
    xy = np.multiply(dts, np.array(((v.vx,), (v.vy,))), out=out)
    np.subtract(batch.xy, xy, out=xy)
    return WarpedBatch(xy, dts)
