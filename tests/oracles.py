"""Test oracles: scalar reference twins of the columnar code, and the
columnar reference ascent with the one source of the coordinates it warps.

``ascent_xy`` is the one place a test-side ascent takes its coordinates:
``ascent_warp`` warps them and ``ascent_readout`` scatters that warp, and
every test that re-reads a batch ``estimate_motion`` or ``track`` ran on
goes through them, ``every_iteration_ascent`` included."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from evcm.datapath import PIPELINE_DEPTH, ROLES, ImageSet
from evcm.events import EventParseError, EventValidationError
from evcm.objective import evaluate
from evcm.optimizer import (
    FIRST_STEP, LEAST_STEP, IterationRecord, OptimizationError, OptimizationTrace,
)
from evcm.synth import SceneConfig, SyntheticScene, _sample_offsets
from evcm.voting import IweScatter
from evcm.warp import Velocity, WarpedBatch

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def parse_events_scalar(path, sensor_size):
    """Line-by-line ``t x y p`` parser: (ts, xs, ys, ps) lists, ps in -1/+1.

    Only ``\\n`` ends a line, values beyond int64 are parse errors, and
    polarity must be 0 or 1. Timestamps are seconds when any non-comment
    line holds a ``.``, else integer microseconds.
    """
    cols = ([], [], [], [])
    with open(path, "rb") as fh:  # binary lines end at b"\n" only
        lines = [ln.decode("ascii", errors="replace") for ln in fh]
    seconds = any("." in ln for ln in lines if not ln.strip().startswith("#"))
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise EventParseError(line_no, f"expected 4 fields, got {len(parts)}")
        t_tok, x_tok, y_tok, p_tok = parts
        try:
            t = round(float(t_tok) * 1e6) if seconds else int(t_tok)
            x = int(x_tok)
            y = int(y_tok)
            p = int(p_tok)
        except (ValueError, OverflowError) as exc:
            raise EventParseError(line_no, f"unparseable field: {exc}") from None
        if not all(INT64_MIN <= v <= INT64_MAX for v in (t, x, y, p)):
            raise EventParseError(line_no, "field beyond int64")
        if t < 0 or x < 0 or y < 0:
            raise EventValidationError(line_no, f"negative field in {line!r}")
        if p not in (0, 1):
            raise EventParseError(line_no, f"polarity must be 0 or 1, got {p}")
        sw, sh = sensor_size
        if x >= sw or y >= sh:
            raise EventValidationError(
                line_no, f"coordinates ({x}, {y}) outside sensor {sw}x{sh}"
            )
        for col, v in zip(cols, (t, x, y, -1 if p == 0 else 1)):
            col.append(v)
    return cols


def write_events_scalar(scene, path) -> None:
    """Events-file writer formatting numpy scalars one event at a time."""
    lines = [
        f"{t} {x} {y} {0 if p < 0 else 1}"
        for t, x, y, p in zip(scene.ts, scene.xs, scene.ys, scene.ps)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass(frozen=True)
class WarpedEvent:
    """Event displaced to the reference time; sub-pixel, ROI-local coords."""

    xw: float
    yw: float
    norm_dt: float


def warp_event(x: float, y: float, norm_dt: float, v: Velocity) -> WarpedEvent:
    """Displace one event: x' = x - dt*vx, y' = y - dt*vy."""
    return WarpedEvent(x - norm_dt * v.vx, y - norm_dt * v.vy, norm_dt)


def warped_events(warped) -> Iterator[WarpedEvent]:
    """A ``WarpedBatch`` as one ``WarpedEvent`` per event, in order."""
    for x, y, dt in zip(warped.xs, warped.ys, warped.dts):
        yield WarpedEvent(float(x), float(y), float(dt))


@dataclass(frozen=True)
class VoteContribution:
    """One pixel's share of a warped event: weight plus its two velocity
    derivatives."""

    pixel: tuple[int, int]  # (i, j) ROI-local
    w: float
    dwx: float
    dwy: float


def bilinear_votes(we: WarpedEvent, shape: tuple[int, int]) -> list[VoteContribution]:
    """Vote contributions of one warped event to its four neighbor pixels.

    Pixels outside [0, w) x [0, h) are dropped. Weights follow the bilinear
    split of the fractional coordinates; the derivative entries are the
    weight's sensitivity to vx and vy (chain rule through x' = x - dt*v).
    """
    w_dim, h_dim = shape
    i = math.floor(we.xw)
    j = math.floor(we.yw)
    dx = we.xw - i
    dy = we.yw - j
    ndt = -we.norm_dt
    cells = (
        (i, j, (1.0 - dx) * (1.0 - dy), -(1.0 - dy), -(1.0 - dx)),
        (i + 1, j, dx * (1.0 - dy), (1.0 - dy), -dx),
        (i, j + 1, (1.0 - dx) * dy, -dy, (1.0 - dx)),
        (i + 1, j + 1, dx * dy, dy, dx),
    )
    out = []
    for ci, cj, w, dw_ddx, dw_ddy in cells:
        if 0 <= ci < w_dim and 0 <= cj < h_dim:
            out.append(VoteContribution((ci, cj), w, ndt * dw_ddx, ndt * dw_ddy))
    return out


def contrast(iwe: np.ndarray) -> tuple[float, float]:
    """Population variance C = Σ (I − μ)²/P and mean μ = Σ I/P of an image
    I over all its P pixels, voted or not. Both sums are numpy's pairwise
    sum over a contiguous grid, the one ``objective.evaluate`` takes, so the
    variance of a readout's IWE is its contrast bit for bit."""
    if iwe.size == 0:
        raise ValueError("contrast of an empty grid is undefined")
    mu = float(iwe.sum()) / iwe.size
    centred = iwe - mu
    return float((centred * centred).sum()) / iwe.size, mu


def contrast_gradient_scalar(imgs) -> tuple[float, float, float]:
    """Two-pass contrast and (vx, vy) gradient of an ``ImageSet`` in Python
    floats: the variance of the IWE I, and per axis 2/P · Σ (I − μ)(D − μ_D)
    over the P pixels, D being that axis's derivative image. Every sum is an
    exactly rounded ``math.fsum``."""
    iwe = [float(v) for v in imgs.iwe.ravel()]
    n_p = len(iwe)
    mu = math.fsum(iwe) / n_p
    centred = [v - mu for v in iwe]
    out = [math.fsum(c * c for c in centred) / n_p]
    for d_img in (imgs.d_vx, imgs.d_vy):
        d = [float(v) for v in d_img.ravel()]
        d_mu = math.fsum(d) / n_p
        out.append(2.0 / n_p * math.fsum(c * (v - d_mu) for c, v in zip(centred, d)))
    return out[0], out[1], out[2]


def gather_scalar(warped, image, shape) -> tuple[float, float]:
    """Σ image[pixel]·dwx and Σ image[pixel]·dwy over the ``bilinear_votes``
    of every event of a ``WarpedBatch``, each an exactly rounded
    ``math.fsum`` of Python floats: ``image`` gathered against the IWE's
    two velocity derivatives. Votes off the grid are dropped."""
    terms = [(float(image[v.pixel[1], v.pixel[0]]), v.dwx, v.dwy)
             for we in warped_events(warped) for v in bilinear_votes(we, shape)]
    return (math.fsum(g * dwx for g, dwx, _ in terms),
            math.fsum(g * dwy for g, _, dwy in terms))


def votes_image_scalar(warped, votes, shape) -> np.ndarray:
    """The (h, w) image of arbitrary (n, 4) ``votes`` at the stencils of a
    ``WarpedBatch``: vote c of each event is added, in (event, corner) order
    with Python floats, to corner c of its stencil, (i, j), (i+1, j),
    (i, j+1), (i+1, j+1) from its floor (i, j). Corners off the grid are
    dropped."""
    w, h = shape
    out = [[0.0] * w for _ in range(h)]
    for we, row in zip(warped_events(warped), votes.tolist()):
        i, j = math.floor(we.xw), math.floor(we.yw)
        for (ci, cj), vote in zip(((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)), row):
            if 0 <= ci < w and 0 <= cj < h:
                out[cj][ci] += vote
    return np.array(out, dtype=np.float64)


def ascent_xy(batch) -> np.ndarray:
    """The (2, n) float64 block of x and y rows that an ascent on ``batch``
    warps from: the batch's integer coordinates."""
    return batch.xy


def ascent_warp(batch, v: Velocity) -> WarpedBatch:
    """``batch`` warped at ``v`` as an ascent warps it, row by row from
    ``ascent_xy``: x' = x - dt*vx, y' = y - dt*vy."""
    x, y = ascent_xy(batch)
    dts = batch.norm_dts
    return WarpedBatch(np.stack((x - dts * v.vx, y - dts * v.vy)), dts)


def ascent_readout(batch, v: Velocity, shape, grid: IweScatter | None = None) -> IweScatter:
    """The one-image readout of ``batch`` at ``v`` on the (w, h) grid
    ``shape``: its ``ascent_warp`` scattered into ``grid`` (a fresh
    ``IweScatter`` when none is given), which it returns, its ``iwe`` set
    and ready for ``evaluate``."""
    if grid is None:
        grid = IweScatter(len(batch), shape)
    grid.scatter(ascent_warp(batch, v))
    return grid


# The first step of an ascent from a warm start (``estimate_motion(...,
# warm=True)``): a quarter of FIRST_STEP, written here from that rule.
WARM_FIRST_STEP = FIRST_STEP / 4


def every_iteration_ascent(batch, cfg, shape, first_step=FIRST_STEP):
    """``estimate_motion`` with no fixed-point exit: it reads the IWE out
    (an ``ascent_readout``) at every one of the ``cfg.iterations`` steps and
    once more at the velocity it returns, the last readout giving
    ``final_iwe`` and, through the bare-grid ``contrast``,
    ``final_contrast``. Each axis's step starts at ``first_step``
    (``WARM_FIRST_STEP`` for a warm start). Once both steps are below
    ``LEAST_STEP`` after a step's moves, both stay 0 and every later readout
    is at the same velocity."""
    grid = IweScatter(len(batch), shape)
    w, h = shape
    v = cfg.v_init
    steps = [first_step, first_step]
    signs = [0, 0]
    records = []
    for it in range(cfg.iterations + 1):
        ascent_readout(batch, v, shape, grid)
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
        c, g_vx, g_vy = evaluate(grid)
        if not (math.isfinite(g_vx) and math.isfinite(g_vy)):
            raise OptimizationError(f"non-finite gradient at iteration {it}")
        records.append(IterationRecord(v, c, g_vx, g_vy))
        pos = [v.vx, v.vy]
        for axis, g in enumerate((g_vx, g_vy)):
            sign = (g > 0) - (g < 0)
            if sign * signs[axis] < 0:
                steps[axis] *= 0.5
            signs[axis] = sign
            pos[axis] += sign * steps[axis]
        if steps[0] < LEAST_STEP and steps[1] < LEAST_STEP:
            steps = [0.0, 0.0]
        v = Velocity(*pos)
    return v, OptimizationTrace(records, grid.iwe, contrast(grid.iwe)[0], cfg.iterations + 1)


def generate_scene_per_batch(cfg: SceneConfig) -> SyntheticScene:
    """``generate_scene`` batch by batch: each batch's columns go to a list
    of their own, which is concatenated at the end. Its bytes are the ones
    every scene, and so every benchmark input, must keep."""
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
    all_on: list[np.ndarray] = []
    centers = []
    n_total = cfg.events_per_batch
    n_noise = int(round(cfg.noise_fraction * n_total))
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
        # events off the sensor are dropped, not clipped to its edge; the
        # polarity draw below still covers them, so the drop changes no draw
        on = (x >= 0) & (x < sw) & (y >= 0) & (y < sh)
        all_on.append(on)
        all_t.append(np.rint(times[on]).astype(np.int64))
        all_x.append(x[on])
        all_y.append(y[on])
        all_noise.append(noise_mask[on])
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
    on = np.concatenate(all_on)
    ps = np.where(rng.integers(0, 2, size=len(on)) == 0, -1, 1).astype(np.int8)[on]
    truth = {
        "config": {**asdict(cfg)},
        "velocity_norm": list(cfg.velocity),
        "velocity_px_per_us": [ux, uy],
        "start": list(cfg.start),
        "centers": centers,
        "noise_indices": np.flatnonzero(noise).tolist(),
        "n_events": int(len(ts)),
        "n_off_sensor": int(len(on) - len(ts)),
    }
    return SyntheticScene(ts, xs, ys, ps, noise, truth)


class DatapathBank:
    """One memory bank with a simulated 3-stage read-modify-write pipeline.

    Updates spend PIPELINE_DEPTH cycles in flight before the write-back
    lands. ``hits`` counts the updates whose address matches an in-flight
    entry. With forwarding enabled such an update reads the in-flight value
    instead of the stale memory word; disabling forwarding reproduces the
    lost-update hazard.
    """

    __slots__ = ("mem", "inflight", "forwarding", "writes", "hits")

    def __init__(self, n_words: int, forwarding: bool = True) -> None:
        self.mem = [0.0] * n_words
        self.inflight: deque[tuple[int, float]] = deque()
        self.forwarding = forwarding
        self.writes = 0
        self.hits = 0

    def add(self, addr: int, value: float) -> None:
        base = None
        for a, v in reversed(self.inflight):
            if a == addr:
                self.hits += 1
                if self.forwarding:
                    base = v
                break
        if base is None:
            base = self.mem[addr]          # stage 1: memory read
        acc = base + value                 # stage 2: add
        self.inflight.append((addr, acc))  # stage 3 pending: write-back
        self.writes += 1
        if len(self.inflight) > PIPELINE_DEPTH:
            a, v = self.inflight.popleft()
            self.mem[a] = v

    def flush(self) -> None:
        while self.inflight:
            a, v = self.inflight.popleft()
            self.mem[a] = v

    def clear(self) -> None:
        self.mem = [0.0] * len(self.mem)
        self.inflight.clear()


class BankedDatapathOracle:
    """Per-update loop model of ``evcm.BankedAccumulator``: 3 image roles x
    4 parity banks of ``DatapathBank``, fed every in-grid, non-zero vote of
    ``bilinear_votes`` in (event, corner) order, with the same
    ``accumulate``, ``read_and_clear``, ``bank_occupancy`` and
    ``forwarding_hits``. An event with a non-finite coordinate votes
    nothing, as in the package."""

    def __init__(self, shape: tuple[int, int], forwarding: bool = True) -> None:
        w, h = shape
        self.shape = shape
        n_words = (w // 2) * (h // 2)
        self._banks = {
            role: [DatapathBank(n_words, forwarding) for _ in range(4)] for role in ROLES
        }

    def accumulate(self, warped) -> None:
        half_w = self.shape[0] // 2
        role_banks = [self._banks[role] for role in ROLES]
        for we in warped_events(warped):
            if not (math.isfinite(we.xw) and math.isfinite(we.yw)):
                continue
            for vote in bilinear_votes(we, self.shape):
                i, j = vote.pixel
                bank_idx = (i & 1) + 2 * (j & 1)
                addr = (j >> 1) * half_w + (i >> 1)
                for banks, value in zip(role_banks, (vote.w, vote.dwx, vote.dwy)):
                    if value != 0.0:
                        banks[bank_idx].add(addr, value)

    def bank_occupancy(self, role: str = "iwe") -> tuple[int, ...]:
        return tuple(b.writes for b in self._banks[role])

    def forwarding_hits(self, role: str = "iwe") -> tuple[int, ...]:
        return tuple(b.hits for b in self._banks[role])

    def _assemble(self, role: str) -> np.ndarray:
        w_dim, h_dim = self.shape
        grid = np.empty((h_dim, w_dim), dtype=np.float64)
        # bank index = (i & 1) + 2 * (j & 1)
        for k, bank in enumerate(self._banks[role]):
            grid[k >> 1::2, k & 1::2] = np.reshape(bank.mem, (h_dim // 2, w_dim // 2))
        return grid

    def read_and_clear(self) -> ImageSet:
        for banks in self._banks.values():
            for b in banks:
                b.flush()
        iwe, d_vx, d_vy = (self._assemble(role) for role in ROLES)
        for banks in self._banks.values():
            for b in banks:
                b.clear()
        return ImageSet(iwe=iwe, d_vx=d_vx, d_vy=d_vy, in_bounds_mass=float(iwe.sum()))
