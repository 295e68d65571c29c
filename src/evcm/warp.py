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
    """Column-oriented warped batch: sub-pixel, ROI-local coordinates."""

    xs: np.ndarray   # float64
    ys: np.ndarray   # float64
    dts: np.ndarray  # float64, normalized

    def __len__(self) -> int:
        return int(self.xs.shape[0])


def warp_batch(batch: EventBatch, v: Velocity) -> WarpedBatch:
    """Warp every event in the batch: x' = x - dt*vx, y' = y - dt*vy; order
    preserved, coordinates unclamped."""
    dts = batch.norm_dts
    xs = batch.xs - dts * v.vx  # int64 columns promote to float64 as astype would
    ys = batch.ys - dts * v.vy
    return WarpedBatch(xs, ys, dts)
