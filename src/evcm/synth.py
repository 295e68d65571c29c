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


_WRITE_CHUNK = 1 << 14  # lines formatted per write; bounds the temporaries


def _lines(ts, xs, ys, on) -> bytes:
    """``f"{t} {x} {y} {p}\\n"`` for every row of non-empty int64 columns and
    a boolean polarity ``on`` (written 1 or 0), formatted as whole columns.

    Each line is laid out in one row of a uint8 block: every number sits
    right-aligned in a field as wide as the widest of its column, and a mask
    marks the bytes in use; the masked bytes, in row order, are the text.
    """
    fields = []
    for col in (ts, xs, ys):
        mag = np.abs(col, dtype=np.int64).view(np.uint64)  # |INT64_MIN| is 2**63
        top = int(mag.max())
        # the smallest unsigned type that holds every magnitude divides fastest
        mag = mag.astype(np.min_scalar_type(top))
        fields.append((mag, len(str(top)), np.flatnonzero(col < 0)))
    width = sum(digits + (len(neg) > 0) for _, digits, neg in fields) + 5
    block = np.empty((len(ts), width), dtype=np.uint8)
    used = np.ones(block.shape, dtype=bool)
    end = 0
    for mag, digits, neg in fields:
        lead = end + (len(neg) > 0)  # a sign column first, if any number is negative
        used[:, end:lead] = False
        end = lead + digits
        for j in range(end - 1, lead - 1, -1):  # units first
            q = mag // 10
            np.add(mag - q * 10, ord("0"), out=block[:, j], casting="unsafe")
            if j < end - 1:
                np.not_equal(mag, 0, out=used[:, j])  # no leading zeros
            mag = q
        if len(neg):
            sign = end - 1 - used[neg, lead:end].sum(axis=1)
            block[neg, sign] = ord("-")
            used[neg, sign] = True
        block[:, end] = ord(" ")
        end += 1
    np.add(on, ord("0"), out=block[:, end], casting="unsafe")
    block[:, end + 1] = ord("\n")
    return block[used].tobytes()


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
        if min(self.sensor) < 1:
            raise ValueError(f"sensor sides must be >= 1, got {self.sensor}")
        for name, pair in (("velocity", self.velocity), ("start", self.start)):
            if not np.isfinite(pair).all():
                raise ValueError(f"{name} must be finite, got {pair}")
        if self.batch_duration_us < 1:
            raise ValueError(f"batch_duration_us must be >= 1, got {self.batch_duration_us}")
        if self.object_size < 1:
            raise ValueError(f"object_size must be >= 1, got {self.object_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.edge_jitter < np.inf:  # False for NaN too
            raise ValueError(f"edge_jitter must be >= 0 and finite, got {self.edge_jitter}")


@dataclass(frozen=True, eq=False)
class SyntheticScene(EventArray):
    """A sorted event stream (``ts`` int64 µs, ``xs``/``ys`` int64, ``ps``
    int8 -1/+1) with its noise tags and ground truth; it feeds ``make_batch``
    and ``track`` directly."""

    noise_mask: np.ndarray  # bool, True where the event is noise
    truth: dict

    def write_events(self, path) -> None:
        """Write the events as the ``t x y p`` text that ``parse_events``
        reads: one line per event, in stream order, each ended by ``"\\n"``,
        the only line break in the file; ``t`` in integer microseconds,
        ``x`` and ``y`` in integer pixels, polarity as 0/1, and single spaces
        between fields. An empty scene writes one ``"\\n"``.

        The lines are formatted ``_WRITE_CHUNK`` events at a time, so the
        formatting temporaries stay bounded however long the scene is."""
        cols = (self.ts, self.xs, self.ys, self.ps >= 0)
        with open(path, "wb") as fh:
            if not len(self):
                fh.write(b"\n")
            for i in range(0, len(self), _WRITE_CHUNK):
                fh.write(_lines(*(c[i : i + _WRITE_CHUNK] for c in cols)))

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
    """Deterministic scene generation for a given seed.

    Events fill a (batches, events_per_batch) block, one row per batch. Each
    batch draws, in this order: its times, its noise picks, its structure
    offsets and its noise coordinates. The polarity of every event in the
    block is drawn last, in one draw, before the events off the sensor are
    dropped, so the drop changes no draw.
    """
    rng = np.random.default_rng(cfg.seed)
    sw, sh = cfg.sensor
    d = float(cfg.batch_duration_us)
    # px per microsecond; one batch spans 2 normalized units
    ux = 2.0 * cfg.velocity[0] / d
    uy = 2.0 * cfg.velocity[1] / d

    n = cfg.events_per_batch
    n_noise = int(round(cfg.noise_fraction * n))
    times = np.empty((cfg.batches, n))
    x = np.empty((cfg.batches, n), dtype=np.int64)
    y = np.empty((cfg.batches, n), dtype=np.int64)
    noise = np.zeros((cfg.batches, n), dtype=bool)
    centers = []
    for b in range(cfg.batches):
        t0 = b * cfg.batch_duration_us
        times[b] = np.sort(rng.uniform(t0, t0 + d, size=n))
        # a draw of size 0 takes nothing from the stream: noise 0 needs no branch
        noise[b, rng.choice(n, size=n_noise, replace=False)] = True
        cx = cfg.start[0] + ux * times[b]
        cy = cfg.start[1] + uy * times[b]
        offs = _sample_offsets(cfg, rng, n)
        x[b] = np.rint(cx + offs[:, 0])
        y[b] = np.rint(cy + offs[:, 1])
        x[b, noise[b]] = rng.integers(0, sw, size=n_noise)
        y[b, noise[b]] = rng.integers(0, sh, size=n_noise)
        t_end = t0 + d
        centers.append(
            {
                "batch": b,
                "t_end_us": t_end,
                "cx": cfg.start[0] + ux * t_end,
                "cy": cfg.start[1] + uy * t_end,
            }
        )

    # events off the sensor are dropped, not clipped to its edge
    on = (x >= 0) & (x < sw) & (y >= 0) & (y < sh)
    ps = np.where(rng.integers(0, 2, size=on.shape) == 0, -1, 1).astype(np.int8)
    ts = np.rint(times[on]).astype(np.int64)
    truth = {
        "config": {**asdict(cfg)},
        "velocity_norm": list(cfg.velocity),
        "velocity_px_per_us": [ux, uy],
        "start": list(cfg.start),
        "centers": centers,
        "noise_indices": np.flatnonzero(noise[on]).tolist(),
        "n_events": int(len(ts)),
        "n_off_sensor": int(on.size - len(ts)),
    }
    return SyntheticScene(ts, x[on], y[on], ps[on], noise[on], truth)
