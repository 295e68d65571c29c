"""Synthetic event scenes with known ground-truth velocity.

Generates a rigid point set (square outline, bar, or point cloud)
translating at constant speed, sampled as integer-pixel events over
count-based batches, optionally mixed with uniform noise events. Velocity
is specified in pixels per normalized time unit: warping one batch with
that velocity collapses the object (up to pixel quantization), because the
normalized dt spans [-1, 1] over the batch duration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .events import EventArray


_WRITE_CHUNK = 1 << 14  # events formatted per write


@dataclass(frozen=True)
class SceneConfig:
    scene: str = "square"                       # square | bar | points
    velocity: tuple[float, float] = (3.0, -2.0)  # px per normalized unit
    start: tuple[float, float] = (120.0, 90.0)   # object center at t = 0
    object_size: int = 20
    batches: int = 1
    events_per_batch: int = 5000
    batch_duration_us: int = 20000
    noise_fraction: float = 0.0
    edge_jitter: float = 1.5  # half-width of sub-pixel structure thickness
    seed: int = 0
    sensor: tuple[int, int] = (240, 180)

    def __post_init__(self) -> None:
        if self.scene not in ("square", "bar", "points"):
            raise ValueError(f"unknown scene {self.scene!r}")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must be in [0, 1]")
        if self.batches < 1 or self.events_per_batch < 1:
            raise ValueError("batches and events_per_batch must be >= 1")


@dataclass(frozen=True, eq=False)
class SyntheticScene(EventArray):
    """A sorted event stream (``ts`` int64 µs, ``xs``/``ys`` int64, ``ps``
    int8 -1/+1) with its noise tags and ground truth; it feeds ``make_batch``
    and ``track`` directly."""

    noise_mask: np.ndarray  # bool, True where the event is noise
    truth: dict

    def write_events(self, path) -> None:
        """Write ``t x y p`` lines (polarity 0/1), formatting Python ints in
        chunks so the formatted text never all sits in memory at once."""
        cols = (self.ts, self.xs, self.ys, (self.ps >= 0).astype(np.int8))
        with open(path, "w", encoding="ascii") as fh:
            # an empty scene still gets its one "\n"
            for i in range(0, max(len(self), 1), _WRITE_CHUNK):
                rows = zip(*(c[i : i + _WRITE_CHUNK].tolist() for c in cols))
                fh.write("\n".join([f"{t} {x} {y} {p}" for t, x, y, p in rows]) + "\n")

    def write_truth(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.truth, indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )


def _sample_offsets(cfg: SceneConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sample n sub-pixel offsets on the object's structure.

    Structure positions are continuous and carry a transverse jitter of
    +/- edge_jitter (finite edge thickness); a thickness of at least half a
    pixel decorrelates the pixel quantization of the emitted events, which
    keeps the contrast landscape free of strong lattice artifacts.
    """
    half = cfg.object_size / 2.0
    jit = rng.uniform(-cfg.edge_jitter, cfg.edge_jitter, size=(n, 2))
    if cfg.scene == "square":
        # uniform position along the 4 edges of the outline
        s = rng.uniform(0.0, 4.0, n)
        edge = np.floor(s).astype(np.int64)
        frac = (s - edge) * 2.0 * half - half
        ox = np.where(edge < 2, frac, np.where(edge == 2, -half, half))
        oy = np.where(edge == 0, -half, np.where(edge == 1, half, frac))
        offs = np.stack([ox, oy], axis=1)
    elif cfg.scene == "bar":
        # elongated rectangle outline (event cameras see object edges, so a
        # moving bar fires along its contour); a filled bar is nearly
        # invariant under along-axis motion, which leaves that velocity
        # component unobservable
        hh = half
        hw = max(2.0, (cfg.object_size // 3) / 2.0)
        per = 4.0 * (hw + hh)
        s = rng.uniform(0.0, per, n)
        ox = np.empty(n)
        oy = np.empty(n)
        m0 = s < 2 * hw                          # bottom edge
        m1 = (s >= 2 * hw) & (s < 4 * hw)        # top edge
        m2 = (s >= 4 * hw) & (s < 4 * hw + 2 * hh)  # left edge
        m3 = ~(m0 | m1 | m2)                     # right edge
        ox[m0] = s[m0] - hw
        oy[m0] = -hh
        ox[m1] = s[m1] - 3 * hw
        oy[m1] = hh
        ox[m2] = -hw
        oy[m2] = s[m2] - 4 * hw - hh
        ox[m3] = hw
        oy[m3] = s[m3] - 4 * hw - 3 * hh
        offs = np.stack([ox, oy], axis=1)
    else:  # points: a fixed random cloud, resampled per event
        cloud = rng.uniform(-half, half, size=(max(16, cfg.object_size), 2))
        offs = cloud[rng.integers(0, len(cloud), n)]
    return offs + jit


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    """Deterministic scene generation for a given seed."""
    rng = np.random.default_rng(cfg.seed)
    sw, sh = cfg.sensor
    d = float(cfg.batch_duration_us)
    # px per microsecond; one batch spans 2 normalized units
    ux = 2.0 * cfg.velocity[0] / d
    uy = 2.0 * cfg.velocity[1] / d

    all_t: list[np.ndarray] = []
    all_x: list[np.ndarray] = []
    all_y: list[np.ndarray] = []
    all_noise: list[np.ndarray] = []
    centers = []
    n_total = cfg.events_per_batch
    n_noise = int(round(cfg.noise_fraction * n_total))
    n_signal = n_total - n_noise
    for b in range(cfg.batches):
        t0 = b * cfg.batch_duration_us
        times = np.sort(rng.uniform(t0, t0 + d, size=n_total))
        noise_mask = np.zeros(n_total, dtype=bool)
        if n_noise:
            noise_mask[rng.choice(n_total, size=n_noise, replace=False)] = True
        cx = cfg.start[0] + ux * times
        cy = cfg.start[1] + uy * times
        offs = _sample_offsets(cfg, rng, n_total)
        x = np.rint(cx + offs[:, 0]).astype(np.int64)
        y = np.rint(cy + offs[:, 1]).astype(np.int64)
        if n_noise:
            x[noise_mask] = rng.integers(0, sw, size=n_noise)
            y[noise_mask] = rng.integers(0, sh, size=n_noise)
        np.clip(x, 0, sw - 1, out=x)
        np.clip(y, 0, sh - 1, out=y)
        all_t.append(np.rint(times).astype(np.int64))
        all_x.append(x)
        all_y.append(y)
        all_noise.append(noise_mask)
        t_end = t0 + d
        centers.append(
            {
                "batch": b,
                "t_end_us": t_end,
                "cx": cfg.start[0] + ux * t_end,
                "cy": cfg.start[1] + uy * t_end,
            }
        )

    ts = np.concatenate(all_t)
    xs = np.concatenate(all_x)
    ys = np.concatenate(all_y)
    noise = np.concatenate(all_noise)
    ps = np.where(rng.integers(0, 2, size=len(ts)) == 0, -1, 1).astype(np.int8)
    truth = {
        "config": {**asdict(cfg)},
        "velocity_norm": list(cfg.velocity),
        "velocity_px_per_us": [ux, uy],
        "start": list(cfg.start),
        "centers": centers,
        "noise_indices": np.flatnonzero(noise).tolist(),
        "n_events": int(len(ts)),
    }
    return SyntheticScene(ts, xs, ys, ps, noise, truth)
