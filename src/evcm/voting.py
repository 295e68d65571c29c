"""Bilinear voting: one IWE scatter, which serves the estimator and both
accumulators of the IWE and its two velocity-derivative images.

Each warped event spreads over its four neighboring pixels with bilinear
weights (``_stencil``), and each image is one ``np.bincount`` of votes
(``_image``). ``IweScatter`` votes a batch once and keeps its stencil: it
holds the IWE, ``gather`` reads any image against the weights' velocity
derivatives, and ``derivative_votes`` gives those derivatives as votes.

* The estimator scatters each ascent step's IWE and gathers its gradient.
* ``NaiveAccumulator`` and ``BankedAccumulator`` share one readout window,
  the batches of every ``accumulate`` call since the last readout. At
  ``read_and_clear`` they vote its concatenated columns through one
  ``IweScatter``, whose derivative votes give the other two images.
* ``BankedAccumulator`` models the hardware datapath: 12 memory banks
  (3 image roles x 4 coordinate-parity banks), each a 3-stage
  read-modify-write pipeline with a 3-entry forwarding buffer resolving
  same-address hazards, and clear-on-read semantics. As the buffer covers
  every update in flight, each bank word is the in-order sum of its
  updates, so the banks' images are the naive ones; the model adds
  whole-array hazard analysis of each bank's address stream (issued
  updates and forwarding hits per bank). It is driven directly, as a model
  of the datapath, not as an estimator mode.

``np.bincount`` adds each pixel's votes one at a time in stream order, so
every pixel is the same sequential sum wherever it is voted, however a
window was cut into calls. Off-grid corners land in a PAD-pixel ring.

Batch-sized temporaries of hundreds of KB go back to the OS and are
page-faulted in again on every ascent iteration, which costs more than the
arithmetic, so ``IweScatter`` keeps its buffers for the whole ascent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .warp import WarpedBatch

# Accumulation pipeline: read, add, write-back. An update is in flight for
# PIPELINE_DEPTH cycles; the forwarding buffer covers exactly that window.
PIPELINE_DEPTH = 3

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


def _check_grid(shape: tuple[int, int]) -> None:
    w, h = shape
    if w < 2 or h < 2:
        raise VotingConfigError(f"grid must be at least 2x2, got {w}x{h}")


def check_bank_grid(shape: tuple[int, int]) -> None:
    """The banks' rule: each parity bank holds one pixel of every 2x2 block,
    so both sides of the grid must be even."""
    w, h = shape
    if w % 2 != 0 or h % 2 != 0:
        raise VotingConfigError(
            f"banked accumulator needs even grid dimensions, got {w}x{h}"
        )


def _image(index: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The (h, w) image of ``values`` voted at the padded-grid ``index``:
    one ``bincount``, which adds each pixel's votes in stream order."""
    w, h = shape
    ph, pw = h + 2 * PAD, w + 2 * PAD
    padded = np.bincount(index.ravel(), values.ravel(), minlength=ph * pw)
    # astype copies, and keeps float64 where an empty stream counts ints
    return padded.reshape(ph, pw)[PAD:-PAD, PAD:-PAD].astype(np.float64)


class IweScatter:
    """One batch's votes: the IWE, scattered by one ``bincount`` per call,
    and at the kept stencil any image gathered and the derivative votes.

    The (n, 4) stencil and gather buffers of a batch of ``n_events`` events
    are allocated once, here, and reused by every ascent iteration. After
    ``scatter``, ``iwe`` is the (h, w) image of warped events and
    ``in_bounds_mass`` its sum; the next ``scatter`` makes a new ``iwe``.
    """

    def __init__(self, n_events: int, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        w, h = shape
        self.shape = shape
        self._index = np.empty((n_events, 4), dtype=np.intp)
        self._weight = np.empty((n_events, 4))
        self._corners = np.empty((n_events, 4))  # gather target
        self._frac = np.empty((4, n_events))  # dx, dy, 1 - dx, 1 - dy
        # the gathered image on the padded grid; the ring stays 0, so
        # corners that left the grid gather nothing
        self._padded = np.zeros((h + 2 * PAD, w + 2 * PAD))

    def scatter(self, warped: WarpedBatch) -> None:
        self._dts = warped.dts
        _stencil(warped.xs, warped.ys, self.shape, self._index, self._weight, self._frac)
        self.iwe = _image(self._index, self._weight, self.shape)
        self.in_bounds_mass = float(self.iwe.sum())

    def derivative_votes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n, 4) votes of ∂I/∂vx and ∂I/∂vy at ``_index``, I being the
        IWE last scattered: the scatter form of ∂w/∂v, whose transpose is
        ``gather``."""
        dx, dy, one_dx, one_dy = self._frac
        ndt = -self._dts
        # ndt * (-a) == -(ndt * a) exactly: IEEE rounding is sign-symmetric
        a, b = ndt * one_dy, ndt * dy
        d_vx = np.stack((-a, a, -b, b), axis=1)
        a, b = ndt * one_dx, ndt * dx
        return d_vx, np.stack((-a, -b, a, b), axis=1)

    def gather(self, image: np.ndarray) -> tuple[float, float]:
        """(Σ_p image[p]·∂I[p]/∂vx, Σ_p image[p]·∂I[p]/∂vy) over the pixels p of
        an (h, w) ``image``, I being the IWE last scattered: each event reads
        ``image`` at its stencil corners, and corners off the grid read 0."""
        self._padded[PAD:-PAD, PAD:-PAD] = image
        c0, c1, c2, c3 = np.take(self._padded.ravel(), self._index,
                                 out=self._corners, mode="clip").T
        dx, dy, one_dx, one_dy = self._frac
        # ∂x'/∂vx = -dt, so ∂w/∂vx per corner is dt·(1−dy, −(1−dy), dy, −dy)
        g_vx = np.dot(self._dts, one_dy * (c0 - c1) + dy * (c2 - c3))
        g_vy = np.dot(self._dts, one_dx * (c0 - c2) + dx * (c1 - c3))
        return float(g_vx), float(g_vy)


def _hazards(s: IweScatter, d_vx: np.ndarray, d_vy: np.ndarray) -> np.ndarray:
    """(2, 12) issued updates and forwarding hits per bank key (role * 4 +
    parity bank) of one readout window's votes, scattered by ``s`` with
    derivative votes ``d_vx``, ``d_vy``; the window starts with the
    pipelines drained."""
    w_dim, h_dim = s.shape
    j, i = np.divmod(s._index.ravel(), w_dim + 2 * PAD)
    i -= PAD
    j -= PAD
    issued = np.stack((s._weight.ravel(), d_vx.ravel(), d_vy.ravel())) != 0.0
    issued &= (0 <= i) & (i < w_dim) & (0 <= j) & (j < h_dim)
    # the (role, event, corner) order of the selection is each bank's
    # issue order
    key = 4 * np.arange(len(ROLES))[:, None] + (i & 1) + 2 * (j & 1)
    word = (j >> 1) * (w_dim // 2) + (i >> 1)
    tags = (key * (w_dim // 2) * (h_dim // 2) + word)[issued]
    # int8 keys sort stably by radix; the sort lines up each bank's stream
    # in issue order
    keys = key[issued].astype(np.int8)
    order = np.argsort(keys, kind="stable")
    tags, keys = tags[order], keys[order]
    # a tag holds bank and word, so it matches one of the previous
    # PIPELINE_DEPTH tags only within its own bank's stream
    hit = np.zeros(tags.size, dtype=bool)
    for d in range(1, PIPELINE_DEPTH + 1):
        hit[d:] |= tags[d:] == tags[:-d]
    return np.stack([np.bincount(k, minlength=4 * len(ROLES)) for k in (keys, keys[hit])])


class _Accumulator:
    """What both accumulators share: the readout window, the batches (not
    copies) of every ``accumulate`` call since the last readout."""

    def __init__(self, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        self.shape = shape
        self._window: list[WarpedBatch] = []

    def accumulate(self, warped: WarpedBatch) -> None:
        self._window.append(warped)

    def _votes(self) -> tuple[IweScatter, np.ndarray, np.ndarray]:
        """The window's batches concatenated in call order and voted once:
        their ``IweScatter`` and its derivative votes."""
        xs, ys, dts = (np.concatenate([np.empty(0), *(getattr(w, col) for w in self._window)])
                       for col in ("xs", "ys", "dts"))
        s = IweScatter(len(xs), self.shape)
        s.scatter(WarpedBatch(xs, ys, dts))
        return (s, *s.derivative_votes())

    def _read(self, s: IweScatter, d_vx: np.ndarray, d_vy: np.ndarray) -> ImageSet:
        """Close the window and return the images of its ``_votes``."""
        self._window = []
        return ImageSet(iwe=s.iwe, d_vx=_image(s._index, d_vx, self.shape),
                        d_vy=_image(s._index, d_vy, self.shape),
                        in_bounds_mass=s.in_bounds_mass)


class NaiveAccumulator(_Accumulator):
    """Reference accumulator of the three images, with clear-on-read."""

    def read_and_clear(self) -> ImageSet:
        return self._read(*self._votes())


class BankedAccumulator(_Accumulator):
    """The banked accumulation datapath: 3 image roles x 4 parity banks.

    Pixel (i, j) lives in bank ``(i & 1) + 2 * (j & 1)`` at word
    ``(j >> 1) * (w // 2) + (i >> 1)``, so one event's four stencil pixels sit
    in four different banks and could be written in one hardware cycle.
    Each bank is a read-modify-write pipeline with PIPELINE_DEPTH updates in
    flight and a forwarding buffer over exactly those updates, so every bank
    word ends up as the in-order sum of its updates: the images are the
    naive accumulator's, bit for bit. What the banks add is the update
    stream's hazard analysis. Only in-grid, non-zero contributions are
    issued; ``bank_occupancy`` counts them per bank and ``forwarding_hits``
    counts those whose word matches an update still in flight in the same
    bank, the updates that would read a stale word without the buffer.
    Hazards are counted over each readout window's whole stream: every
    ``accumulate`` call since the last readout, in call order.

    ``read_and_clear`` models the clear-on-read BRAM scheme: the pipelines
    drain, and it returns the window's images and leaves every bank zeroed.
    The two counters run on across readouts, over the accumulator's life;
    the open window's share is voted once per window state, at the first
    counter read after an ``accumulate`` or ``read_and_clear``.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        check_bank_grid(shape)
        super().__init__(shape)
        # the _hazards of the windows read out so far, and of the open one
        # once a counter has asked (None until then)
        self._closed = np.zeros((2, 4 * len(ROLES)), dtype=np.int64)
        self._open: np.ndarray | None = None

    def accumulate(self, warped: WarpedBatch) -> None:
        super().accumulate(warped)
        self._open = None

    def _per_bank(self, which: int, role: str) -> tuple[int, int, int, int]:
        """Row ``which`` of the ``_hazards`` counts for one role's banks,
        over the windows read out and the one still open."""
        if role not in ROLES:
            raise ValueError(f"unknown image role {role!r}, expected one of {ROLES}")
        if self._open is None:
            self._open = _hazards(*self._votes())
        counts = self._closed + self._open
        k = 4 * ROLES.index(role)
        return tuple(counts[which, k:k + 4].tolist())  # type: ignore[return-value]

    def bank_occupancy(self, role: str = "iwe") -> tuple[int, int, int, int]:
        """Non-zero updates issued per parity bank for one image role."""
        return self._per_bank(0, role)

    def forwarding_hits(self, role: str = "iwe") -> tuple[int, int, int, int]:
        """Updates per parity bank for one image role that read their word
        from the forwarding buffer, as it was still in flight."""
        return self._per_bank(1, role)

    def read_and_clear(self) -> ImageSet:
        votes = self._votes()
        self._closed += _hazards(*votes)  # the pipelines drain
        self._open = None
        return self._read(*votes)
