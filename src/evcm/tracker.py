"""Object tracking loop: batch the stream, estimate motion in the ROI,
advance the ROI by the estimated velocity."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .events import EventArray, Roi, filter_roi, make_batch
from .optimizer import OptimizerConfig, estimate_motion
from .voting import write_pgm
from .warp import Velocity


@dataclass(frozen=True)
class TrackerConfig:
    batch_size: int = 5000
    roi_init: Roi = field(default_factory=lambda: Roi(0.0, 0.0, 64, 64))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    roi_update_scale: float = 1.0
    min_roi_events: int = 10
    sensor_width: int = 240
    sensor_height: int = 180
    dump_iwe_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.min_roi_events < 1:
            raise ValueError("min_roi_events must be >= 1")
        # chained comparisons are False for NaN, so NaN fails the check
        if not 0 <= self.roi_update_scale < math.inf:
            raise ValueError(
                "roi_update_scale must be non-negative and finite, "
                f"got {self.roi_update_scale}"
            )
        roi = self.roi_init
        if roi.w > self.sensor_width or roi.h > self.sensor_height:
            raise ValueError(
                f"ROI {roi.w}x{roi.h} does not fit the "
                f"{self.sensor_width}x{self.sensor_height} sensor"
            )
        if not (0 <= roi.x0 <= self.sensor_width - roi.w
                and 0 <= roi.y0 <= self.sensor_height - roi.h):
            raise ValueError(
                f"ROI origin ({roi.x0}, {roi.y0}) must lie in "
                f"[0, {self.sensor_width - roi.w}] x [0, {self.sensor_height - roi.h}] "
                f"for a {roi.w}x{roi.h} ROI on the "
                f"{self.sensor_width}x{self.sensor_height} sensor"
            )


@dataclass(frozen=True)
class BatchRecord:
    """One batch; its position in the result's records is its batch index."""

    roi: Roi                 # ROI the batch was filtered with (pre-update)
    velocity: Velocity
    contrast: float          # nan when optimization was skipped
    events_in_roi: int
    readouts: int            # the ascent's trace.readouts; 0 when skipped


@dataclass
class TrackResult:
    records: list[BatchRecord]
    final_roi: Roi

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("batch,x_roi,y_roi,vx,vy,contrast,events_in_roi\n")
        for i, r in enumerate(self.records):
            buf.write(
                f"{i},{r.roi.x0!r},{r.roi.y0!r},"
                f"{r.velocity.vx!r},{r.velocity.vy!r},{r.contrast!r},"
                f"{r.events_in_roi}\n"
            )
        return buf.getvalue()


def update_roi(roi: Roi, v: Velocity, scale: float, sensor: tuple[int, int]) -> Roi:
    """Advance the ROI origin by the scaled velocity, clamped so the ROI never
    leaves the (w, h) ``sensor``; size unchanged."""
    sw, sh = sensor
    x0 = min(max(roi.x0 + scale * v.vx, 0.0), float(sw - roi.w))
    y0 = min(max(roi.y0 + scale * v.vy, 0.0), float(sh - roi.h))
    return Roi(x0, y0, roi.w, roi.h)


def track(events: EventArray, cfg: TrackerConfig) -> TrackResult:
    """Run the per-batch tracking pipeline over a sorted event stream.

    Batches are consecutive, count-based slices. Batches with fewer than
    ``min_roi_events`` events inside the ROI skip optimization and keep the
    previous velocity (warm start carries across batches). A trailing
    partial batch is processed only if it clears the same threshold.

    Each ascent after the first estimate starts warm, from the previous
    estimate at ``WARM_STEP``; the first optimized batch starts from
    ``cfg.optimizer.v_init`` at ``FIRST_STEP``.
    """
    if np.any(np.diff(events.ts) < 0):
        raise ValueError("event stream must be sorted by timestamp")
    sensor = (cfg.sensor_width, cfg.sensor_height)
    dump_dir = Path(cfg.dump_iwe_dir) if cfg.dump_iwe_dir is not None else None
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)

    roi = cfg.roi_init
    v = cfg.optimizer.v_init
    warm = False  # v is an earlier batch's estimate
    records: list[BatchRecord] = []
    for start in range(0, len(events), cfg.batch_size):
        chunk = events[start : start + cfg.batch_size]
        if len(chunk) < cfg.batch_size and len(chunk) < cfg.min_roi_events:
            break  # trailing remnant too small to be meaningful
        batch = make_batch(chunk)
        in_roi = filter_roi(batch, roi)
        n = len(in_roi)
        if n < cfg.min_roi_events:
            contrast_val, readouts = float("nan"), 0
        else:
            opt_cfg = replace(cfg.optimizer, v_init=v)
            v, trace = estimate_motion(in_roi, opt_cfg, shape=(roi.w, roi.h), warm=warm)
            warm = True
            contrast_val, readouts = trace.final_contrast, trace.readouts
            if dump_dir is not None:
                write_pgm(trace.final_iwe, dump_dir / f"iwe_{len(records):04d}.pgm")
        records.append(BatchRecord(roi, v, contrast_val, n, readouts))
        roi = update_roi(roi, v, cfg.roi_update_scale, sensor=sensor)
    return TrackResult(records=records, final_roi=roi)
