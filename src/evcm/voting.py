"""Bilinear voting: the estimator's IWE scatter, and the accumulators of the
IWE and its two velocity-derivative images.

Each warped event spreads over its four neighboring pixels with bilinear
weights, and every pixel may also receive the two velocity derivatives of
that weight. Three voters share one stencil (``_stencil``):

* ``IweScatter``, which the estimator runs, scatters the IWE alone and keeps
  the stencil, from which ``objective.evaluate`` gathers the gradient.
* ``NaiveAccumulator`` sums all three images straight into dense grids; it
  is the reference for the banked one and for the gradient.
* ``BankedAccumulator`` structurally emulates the hardware datapath:
  12 memory banks (3 image roles x 4 coordinate-parity banks), each a
  3-stage read-modify-write pipeline with a 3-entry forwarding buffer
  resolving same-address hazards, and clear-on-read semantics. It is
  driven directly, as a model of the datapath; a forwarding-disabled
  variant exists only to demonstrate the hazard the buffer fixes.

Temporaries sized by the whole batch run to hundreds of KB; the allocator
returns such blocks to the OS and page-faults them back in on every ascent
iteration, which costs more than the arithmetic. So ``IweScatter`` keeps
its batch-sized buffers for the whole ascent, and the accumulators vote
CHUNK_EVENTS events at a time. Instead of masking off-grid corners, the
grids carry a PAD-pixel ring that catches them and is cut away on read.
``np.add.at`` adds each contribution in (event, corner) order, across chunks
and across calls, and one unchunked ``np.bincount`` adds in the same order,
so every pixel is the same sequential sum in all three voters and their
IWEs are bit-identical. Only summing per-chunk partials would change the
rounding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .warp import WarpedBatch

# Accumulation pipeline: read, add, write-back. An update is in flight for
# PIPELINE_DEPTH cycles; the forwarding buffer covers exactly that window.
PIPELINE_DEPTH = 3

# Events voted per pass: each (CHUNK_EVENTS, 4) float64 stream is 32 KB, well
# under glibc's 128 KB mmap threshold, so its pages are reused, not refaulted.
CHUNK_EVENTS = 1024
# Padding ring, in pixels per side, that catches stencils leaving the grid.
PAD = 2

ROLES = ("iwe", "d_vx", "d_vy")


class VotingConfigError(ValueError):
    pass


@dataclass
class ImageSet:
    """The three accumulated images over an ROI grid, plus accepted mass."""

    iwe: np.ndarray   # (h, w)
    d_vx: np.ndarray  # (h, w)
    d_vy: np.ndarray  # (h, w)
    in_bounds_mass: float


def write_pgm(grid: np.ndarray, path) -> None:
    """Export a grid as 16-bit ASCII PGM, scaled so its peak maps to 65535;
    the scale factor applied to the raw values is recorded in a header
    comment."""
    peak = float(grid.max()) if grid.size else 0.0
    scale = 65535.0 / peak if peak > 0 else 1.0
    values = np.clip(np.rint(grid * scale), 0, 65535).astype(np.uint16)
    h, w = values.shape
    lines = [f"P2", f"# scale {scale!r}", f"{w} {h}", "65535"]
    lines.extend(" ".join(str(v) for v in row) for row in values)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _stencil(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
             P: np.ndarray, W: np.ndarray, F: np.ndarray) -> None:
    """Bilinear stencil of a run of n warped events, written into P, W, F.

    P and W are (n, 4), event-major with the fixed corner order (i,j),
    (i+1,j), (i,j+1), (i+1,j+1): P indexes the flattened grid padded by PAD
    pixels per side, W holds the bilinear weights. F is (4, n) and receives
    the fractional offsets dx, dy and their complements 1 - dx, 1 - dy. The
    floor coordinates are clamped to [-PAD, w] x [-PAD, h] first, so a
    stencil that leaves the grid lands in the padding ring whatever its
    distance, and the int cast cannot overflow (fmin/fmax also send NaN
    there). Clamping only moves stencils that are wholly off the grid; the
    weights come from the unclamped floor. Every step writes into the given
    buffers, so a call allocates nothing sized by n.
    """
    w_dim, h_dim = shape
    pw = w_dim + 2 * PAD
    dx, dy, one_dx, one_dy = F
    fx = np.floor(xs, out=one_dx)  # the floors borrow the complements' rows
    fy = np.floor(ys, out=one_dy)
    np.subtract(xs, fx, out=dx)
    np.subtract(ys, fy, out=dy)
    np.fmax(np.fmin(fx, w_dim, out=fx), -PAD, out=fx)
    np.fmax(np.fmin(fy, h_dim, out=fy), -PAD, out=fy)
    # the padded index (j + PAD) * pw + (i + PAD); exact in float64, as the
    # clamp bounds it, and cast to intp on assignment
    fy *= pw
    fy += fx
    fy += PAD * pw + PAD
    P[:, 0] = fy
    base = P[:, 0]
    np.add(base, 1, out=P[:, 1])
    np.add(base, pw, out=P[:, 2])
    np.add(base, pw + 1, out=P[:, 3])
    np.subtract(1.0, dx, out=one_dx)
    np.subtract(1.0, dy, out=one_dy)
    np.multiply(one_dx, one_dy, out=W[:, 0])
    np.multiply(dx, one_dy, out=W[:, 1])
    np.multiply(one_dx, dy, out=W[:, 2])
    np.multiply(dx, dy, out=W[:, 3])


def _vote_arrays(xs: np.ndarray, ys: np.ndarray, dts: np.ndarray,
                 shape: tuple[int, int]):
    """Vectorized vote stream for a run of warped events.

    Returns (P, W, DWX, DWY), each of shape (n, 4): the ``_stencil`` of the
    run, and the velocity derivatives of its weights in the same layout.
    """
    n = xs.shape[0]
    P = np.empty((n, 4), dtype=np.intp)
    W = np.empty((n, 4))
    F = np.empty((4, n))
    _stencil(xs, ys, shape, P, W, F)
    dx, dy, one_dx, one_dy = F
    ndt = -dts
    # ndt * (-a) == -(ndt * a) exactly: IEEE rounding is sign-symmetric
    a, b = ndt * one_dy, ndt * dy
    DWX = np.stack((-a, a, -b, b), axis=1)
    a, b = ndt * one_dx, ndt * dx
    DWY = np.stack((-a, -b, a, b), axis=1)
    return P, W, DWX, DWY


def _vote_chunks(warped: WarpedBatch, shape: tuple[int, int]):
    """``_vote_arrays`` over consecutive CHUNK_EVENTS-event slices, in order."""
    for s in range(0, len(warped), CHUNK_EVENTS):
        e = s + CHUNK_EVENTS
        yield _vote_arrays(warped.xs[s:e], warped.ys[s:e], warped.dts[s:e], shape)


def _check_grid(shape: tuple[int, int]) -> None:
    w, h = shape
    if w < 2 or h < 2:
        raise VotingConfigError(f"grid must be at least 2x2, got {w}x{h}")


class NaiveAccumulator:
    """Dense-grid reference accumulator with clear-on-read."""

    def __init__(self, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        w, h = shape
        self.shape = shape
        # iwe, d_vx, d_vy; each row is one flattened padded grid
        self._grids = np.zeros((3, (h + 2 * PAD) * (w + 2 * PAD)))

    def accumulate(self, warped: WarpedBatch) -> None:
        iwe, dvx, dvy = self._grids
        for P, W, DWX, DWY in _vote_chunks(warped, self.shape):
            flat = P.ravel()
            np.add.at(iwe, flat, W.ravel())
            np.add.at(dvx, flat, DWX.ravel())
            np.add.at(dvy, flat, DWY.ravel())

    def read_and_clear(self) -> ImageSet:
        w_dim, h_dim = self.shape
        padded = self._grids.reshape(3, h_dim + 2 * PAD, w_dim + 2 * PAD)
        iwe, dvx, dvy = padded[:, PAD:-PAD, PAD:-PAD].copy()
        self._grids.fill(0.0)
        return ImageSet(iwe=iwe, d_vx=dvx, d_vy=dvy, in_bounds_mass=float(iwe.sum()))


class IweScatter:
    """The estimator's voting: the IWE alone, scattered by one ``bincount``
    per call, with the stencil kept for ``objective.evaluate`` to gather the
    gradient from.

    The (n, 4) stencil and gather buffers of a batch of ``n_events`` events
    are allocated once, here, and reused by every ascent iteration. After
    ``scatter``, ``iwe`` is the (h, w) image of warped events and
    ``in_bounds_mass`` its sum; the next ``scatter`` makes a new ``iwe``.
    """

    def __init__(self, n_events: int, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        w, h = shape
        self.shape = shape
        self.index = np.empty((n_events, 4), dtype=np.intp)
        self.weight = np.empty((n_events, 4))
        self.corners = np.empty((n_events, 4))  # gather target
        self.frac = np.empty((4, n_events))  # dx, dy, 1 - dx, 1 - dy
        # the centred IWE on the padded grid; the ring stays 0, so corners
        # that left the grid gather nothing
        self.centred = np.zeros((h + 2 * PAD, w + 2 * PAD))
        self.centred_interior = self.centred[PAD:-PAD, PAD:-PAD]

    def scatter(self, warped: WarpedBatch) -> None:
        self.dts = warped.dts
        _stencil(warped.xs, warped.ys, self.shape, self.index, self.weight, self.frac)
        # bincount adds in input order: every pixel is the same sequential
        # (event, corner)-order sum as in the accumulators
        padded = np.bincount(self.index.ravel(), self.weight.ravel(),
                             minlength=self.centred.size)
        self.iwe = padded.reshape(self.centred.shape)[PAD:-PAD, PAD:-PAD].copy()
        self.in_bounds_mass = float(self.iwe.sum())


class _Bank:
    """One memory bank with a simulated 3-stage read-modify-write pipeline.

    Updates spend PIPELINE_DEPTH cycles in flight before the write-back
    lands. With forwarding enabled, an incoming address matching an
    in-flight entry reads the in-flight value instead of the stale memory
    word; disabling forwarding reproduces the lost-update hazard.
    """

    __slots__ = ("mem", "inflight", "forwarding", "writes")

    def __init__(self, n_words: int, forwarding: bool = True) -> None:
        self.mem = [0.0] * n_words
        self.inflight: deque[tuple[int, float]] = deque()
        self.forwarding = forwarding
        self.writes = 0

    def add(self, addr: int, value: float) -> None:
        base = None
        if self.forwarding:
            for a, v in reversed(self.inflight):
                if a == addr:
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


class BankedAccumulator:
    """Structural emulation of the banked accumulation datapath.

    3 image roles x 4 parity banks = 12 bank instances. A bilinear stencil's
    four pixels always have distinct coordinate parities, so one event's
    contributions land in four different banks and could be written in a
    single hardware cycle. Zero-valued contributions are not issued.

    ``read_and_clear`` models the clear-on-read BRAM scheme: it returns the
    accumulated grids and leaves every bank zeroed for the next iteration.
    """

    def __init__(self, shape: tuple[int, int], forwarding: bool = True) -> None:
        w, h = shape
        if w % 2 != 0 or h % 2 != 0:
            raise VotingConfigError(
                f"banked accumulator needs even grid dimensions, got {w}x{h}"
            )
        _check_grid(shape)
        self.shape = shape
        n_words = (w // 2) * (h // 2)
        self._banks = {
            role: [_Bank(n_words, forwarding) for _ in range(4)] for role in ROLES
        }

    def accumulate(self, warped: WarpedBatch) -> None:
        w_dim, h_dim = self.shape
        half_w = w_dim // 2
        iwe_banks = self._banks["iwe"]
        dvx_banks = self._banks["d_vx"]
        dvy_banks = self._banks["d_vy"]
        for P, W, DWX, DWY in _vote_chunks(warped, self.shape):
            J, I = np.divmod(P.ravel(), w_dim + 2 * PAD)
            for i, j, w, dwx, dwy in zip(
                (I - PAD).tolist(), (J - PAD).tolist(),
                W.ravel().tolist(), DWX.ravel().tolist(), DWY.ravel().tolist(),
            ):
                if not (0 <= i < w_dim and 0 <= j < h_dim):
                    continue
                bank_idx = (i & 1) + 2 * (j & 1)
                addr = (j >> 1) * half_w + (i >> 1)
                if w != 0.0:
                    iwe_banks[bank_idx].add(addr, w)
                if dwx != 0.0:
                    dvx_banks[bank_idx].add(addr, dwx)
                if dwy != 0.0:
                    dvy_banks[bank_idx].add(addr, dwy)

    def bank_occupancy(self, role: str = "iwe") -> tuple[int, int, int, int]:
        """Non-zero updates issued per parity bank for one image role."""
        return tuple(b.writes for b in self._banks[role])  # type: ignore[return-value]

    def _assemble(self, role: str) -> np.ndarray:
        w_dim, h_dim = self.shape
        grid = np.empty((h_dim, w_dim), dtype=np.float64)
        banks = self._banks[role]
        # bank index = (i & 1) + 2 * (j & 1)
        for k, bank in enumerate(banks):
            grid[k >> 1::2, k & 1::2] = np.reshape(bank.mem, (h_dim // 2, w_dim // 2))
        return grid

    def read_and_clear(self) -> ImageSet:
        for banks in self._banks.values():
            for b in banks:
                b.flush()
        iwe = self._assemble("iwe")
        imgs = ImageSet(
            iwe=iwe,
            d_vx=self._assemble("d_vx"),
            d_vy=self._assemble("d_vy"),
            in_bounds_mass=float(iwe.sum()),
        )
        for banks in self._banks.values():
            for b in banks:
                b.clear()
        return imgs

