"""Bilinear voting: one IWE scatter, which serves the estimator and both
accumulators of the IWE and its two velocity-derivative images.

Each warped event spreads over its four neighboring pixels with bilinear
weights, and each image is one ``np.bincount`` of votes (``_image``).
``IweScatter`` votes a batch once and keeps its stencil: it holds the IWE,
``gather`` reads any image against the weights' velocity derivatives, and
``derivative_votes`` gives those derivatives as votes. A warped batch is
one (2, n) block of x' and y' rows, and each stencil step (floor, fraction,
complement, clamp) is one call over both rows.

* The estimator scatters the IWE of each readout and gathers its gradient.
* ``NaiveAccumulator`` and ``BankedAccumulator`` share one readout window,
  the batches of every ``accumulate`` call since the last readout. At
  ``read_and_clear`` they vote its blocks, concatenated into one (a window
  of one call is voted as it is), through one ``IweScatter``, whose
  derivative votes give the other two images.
* ``BankedAccumulator`` models the hardware datapath: 12 memory banks
  (3 image roles x 4 coordinate-parity banks), each a 3-stage
  read-modify-write pipeline with a 3-entry forwarding buffer resolving
  same-address hazards, and clear-on-read semantics. As the buffer covers
  every update in flight, each bank word is the in-order sum of its
  updates, so the banks' images are the naive ones; the model adds
  whole-array hazard analysis of each bank's address stream (issued
  updates and forwarding hits per bank), counted from each window's one
  vote as its pipelines drain at readout, so the counters cover the
  windows read out so far. Corner c of an event whose
  stencil floor has parity q goes to bank c XOR q, so bank b holds corner
  b XOR q; as an event sends one update per bank, masking the issued
  flags in (role, bank, event) order lists each bank's stream in issue
  order, with no sort. The routing is looked up, not computed: tables
  built once per grid give, for each stencil anchor (its padded floor) and
  bank, the corner the bank holds, or none off the grid, and the tagged
  word it updates. The accumulator is driven directly, as a model of the
  datapath, not as an estimator mode.

``np.bincount`` adds each pixel's votes one at a time in stream order, so
every pixel is the same sequential sum wherever it is voted, however a
window was cut into calls. Off-grid corners land in a PAD-pixel ring.

Batch-sized temporaries of hundreds of KB go back to the OS and are
page-faulted in again on every readout, which costs more than the
arithmetic, so ``IweScatter`` keeps its buffers for the whole ascent, and
the estimator warps into one kept block. At the paper's operating point
(~800 events on 64x64) most of a readout is per-call set-up, so the scatter
also builds once every view a readout touches: the weight columns, the flat
index and weights that ``bincount`` reads, the floors' transpose for the
index product, the fraction rows and their reverse, and the gather's padded
interior, flat grid, corner and term rows. Only ``iwe`` is new on every
scatter, as the estimator's ``final_iwe`` and every ``ImageSet`` hold it.
The gather's buffers, with the two (h, w) grids of ``grids``, are made at
the first ``gather`` and the derivative votes' buffers at the first
``derivative_votes``: the estimator never makes the latter, and the
accumulators, which keep their ``IweScatter`` while their windows' event
count repeats, never the former.
"""

from __future__ import annotations

import functools
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

    The stencil buffers of a batch of ``n_events`` events, and every view
    of them that a readout reads or writes, are made once, here, and reused
    by every readout; the gather's buffers are made at the first ``gather``.
    After ``scatter``, ``iwe`` is the (h, w) image of warped events and
    ``in_bounds_mass`` its sum; each ``scatter`` makes a new ``iwe``, so an
    image handed out earlier is never overwritten.
    """

    def __init__(self, n_events: int, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        w, h = shape
        pw = w + 2 * PAD
        base = PAD * pw + PAD
        self.shape = shape
        self._padded_shape = (h + 2 * PAD, pw)
        self._words = (h + 2 * PAD) * pw
        self._index = np.empty((n_events, 4), dtype=np.intp)
        self._weight = np.empty((n_events, 4))
        self._flat = (self._index.reshape(-1), self._weight.reshape(-1))
        self._columns = tuple(self._weight.T)
        # rows dx, dy, 1 - dx, 1 - dy and ones; while the index is built,
        # rows 2-4 hold each event's (i, j, 1): its floors and a 1
        rows = np.empty((5, n_events))
        rows[4] = 1.0
        self._fracs = tuple(rows[:4])  # dx, dy, 1 - dx, 1 - dy
        self._reversed = rows[:4][::-1]
        # the floors borrow the complements' rows
        self._offset, self._floor = rows[:2], rows[2:4]
        self._floors = rows[2:].T  # (n, 3): each event's (i, j, 1)
        # (i, j, 1) @ _to_index is the padded index (j + PAD) * pw + i + PAD
        # of the corners (i, j), (i+1, j), (i, j+1), (i+1, j+1)
        self._to_index = np.array(((1.0,) * 4, (pw,) * 4,
                                   (base, base + 1, base + pw, base + pw + 1)))
        self._top = np.array(((w,), (h,)), dtype=np.float64)  # the floors' upper clamp
        self._gather = None  # the gather's _GatherBuffers, made on first use
        self._votes = None  # derivative_votes' (2, n, 4) buffer, made on first use

    def scatter(self, warped: WarpedBatch) -> None:
        """Build the bilinear stencil of ``warped`` and sum its IWE.

        ``_index`` and ``_weight`` are (n, 4), event-major with the fixed
        corner order (i,j), (i+1,j), (i,j+1), (i+1,j+1): the index into the
        grid padded by PAD pixels per side and the bilinear weight.
        ``_fracs`` are the rows of the fractional offsets dx, dy and their
        complements. Each step runs once over both coordinate rows and
        writes into the kept buffers, so a readout allocates nothing sized
        by n.

        The floors are clamped to [-PAD, w] x [-PAD, h] before the index is
        built, so a stencil that leaves the grid lands in the padding ring
        whatever its distance, and the int cast cannot overflow (fmin/fmax
        also send NaN there). Clamping only moves stencils that are wholly
        off the grid; the weights come from the unclamped floor. The index
        is one matrix product of integers below 2^53, so it is exact in
        float64 whatever order the product sums in.
        """
        self._dts = warped.dts
        xy, floor = warped.xy, self._floor
        np.floor(xy, out=floor)
        np.subtract(xy, floor, out=self._offset)
        np.fmax(np.fmin(floor, self._top, out=floor), -PAD, out=floor)
        np.matmul(self._floors, self._to_index, out=self._index, casting="unsafe")
        np.subtract(1.0, self._offset, out=floor)
        dx, dy, one_dx, one_dy = self._fracs
        w0, w1, w2, w3 = self._columns
        np.multiply(one_dx, one_dy, out=w0)
        np.multiply(dx, one_dy, out=w1)
        np.multiply(one_dx, dy, out=w2)
        np.multiply(dx, dy, out=w3)
        # _image on the kept flat views; astype makes a new iwe each time
        padded = np.bincount(*self._flat, minlength=self._words)
        self.iwe = padded.reshape(self._padded_shape)[PAD:-PAD, PAD:-PAD].astype(np.float64)
        self.in_bounds_mass = float(np.add.reduce(self.iwe, axis=None))

    def derivative_votes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n, 4) votes of ∂I/∂vx and ∂I/∂vy at ``_index``, I being the
        IWE last scattered: the scatter form of ∂w/∂v, whose transpose is
        ``gather``. The two arrays are buffers kept by the scatter, made at
        the first call, and the next call overwrites them."""
        if self._votes is None:
            self._votes = np.empty((2,) + self._index.shape)
        d_vx, d_vy = self._votes
        dx, dy, one_dx, one_dy = self._fracs
        dts = self._dts
        # ∂x'/∂vx = -dt, so per corner ∂w/∂vx is dt·(1−dy, −(1−dy), dy, −dy)
        # and ∂w/∂vy is dt·(1−dx, dx, −(1−dx), −dx)
        np.multiply(dts, one_dy, out=d_vx[:, 0])
        np.negative(d_vx[:, 0], out=d_vx[:, 1])
        np.multiply(dts, dy, out=d_vx[:, 2])
        np.negative(d_vx[:, 2], out=d_vx[:, 3])
        np.multiply(dts, one_dx, out=d_vy[:, 0])
        np.multiply(dts, dx, out=d_vy[:, 1])
        np.negative(d_vy[:, 0], out=d_vy[:, 2])
        np.negative(d_vy[:, 1], out=d_vy[:, 3])
        return d_vx, d_vy

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Two (h, w) grids kept with the gather's buffers, for a caller's
        per-readout images: ``objective.evaluate`` writes I − μ and its
        square there. Each readout overwrites them."""
        return self._buffers().grids

    def gather(self, image: np.ndarray) -> tuple[float, float]:
        """(Σ_p image[p]·∂I[p]/∂vx, Σ_p image[p]·∂I[p]/∂vy) over the pixels p of
        an (h, w) ``image``, I being the IWE last scattered: each event reads
        ``image`` at its stencil corners, and corners off the grid read 0."""
        g = self._buffers()
        g.inside[...] = image
        g.flat.take(self._index, out=g.corners, mode="clip")
        # ∂x'/∂vx = -dt, so ∂w/∂vx per corner is dt·(1−dy, −(1−dy), dy, −dy);
        # the rows (1−dy)(c0−c1), (1−dx)(c0−c2), dy(c2−c3), dx(c1−c3) pair
        # up into the vx and vy terms, each as one call over all four rows
        np.subtract(g.c02, g.c13, out=g.t02)
        np.subtract(g.c01, g.c23, out=g.t13)
        np.multiply(self._reversed, g.terms, out=g.terms)
        np.add(g.t01, g.t23, out=g.t01)
        dts = self._dts
        return float(dts.dot(g.t0)), float(dts.dot(g.t1))

    def _buffers(self) -> _GatherBuffers:
        if self._gather is None:
            self._gather = _GatherBuffers(len(self._index), self.shape)
        return self._gather


class _GatherBuffers:
    """``IweScatter.gather``'s buffers for n events on a (w, h) grid, with
    every view of them that a gather reads or writes, and the two (h, w)
    grids of ``IweScatter.grids``."""

    def __init__(self, n_events: int, shape: tuple[int, int]) -> None:
        w, h = shape
        # the gathered image on the padded grid; the ring stays 0, so
        # corners that left the grid gather nothing
        padded = np.zeros((h + 2 * PAD, w + 2 * PAD))
        self.inside = padded[PAD:-PAD, PAD:-PAD]
        self.flat = padded.reshape(-1)
        self.corners = np.empty((n_events, 4))  # the take's target
        c = self.corners.T
        self.c02, self.c13, self.c01, self.c23 = c[0::2], c[1::2], c[:2], c[2:]
        self.terms = np.empty((4, n_events))  # the per-event terms
        t = self.terms
        self.t02, self.t13, self.t01, self.t23 = t[0::2], t[1::2], t[:2], t[2:]
        self.t0, self.t1 = t[0], t[1]
        self.grids = (np.empty((h, w)), np.empty((h, w)))


class _Routes:
    """The banks' routing on one grid, as tables indexed by a stencil's
    anchor: the padded index of its clamped floor (i, j), ``_index[:, 0]``.

    PAD is even, so a padded pixel has its unpadded pixel's parity. For each
    anchor p of parity q = (i & 1) + 2 * (j & 1) and each bank b, the pixel
    bank b holds is corner b XOR q of the stencil. ``corner[b, p]`` is that
    corner, or ``OFF`` when the pixel is off the grid, and ``tag[b, p]`` is
    the pixel's padded index, which names a bank word, plus
    ``b * words``. Adding ``roles``, ``r * 4 * words`` for role r, keys a
    tag to one role's stream into one bank: it matches another only within
    that stream, and the streams' tags rise with r * 4 + b, split at
    ``ends``.
    """

    # past every stencil's flags, so np.take with mode="clip" reads the
    # False flag after them
    OFF = np.iinfo(np.intp).max // 2

    def __init__(self, shape: tuple[int, int]) -> None:
        w, h = shape
        pw = w + 2 * PAD
        inside = np.zeros((h + 2 * PAD, pw), dtype=bool)
        inside[PAD:-PAD, PAD:-PAD] = True
        self.words = inside.size
        # the clamped floors reach (w, h), whose far corner ends the padded grid
        anchor = np.arange((h + PAD) * pw + w + PAD + 1)
        j, i = np.divmod(anchor, pw)
        corner = np.arange(4)[:, None] ^ ((i & 1) | (j & 1) << 1)
        pixel = anchor + np.array((0, 1, pw, pw + 1))[corner]
        self.corner = np.where(inside.ravel()[pixel], corner, self.OFF)
        self.tag = pixel + self.words * np.arange(4)[:, None]
        self.roles = 4 * self.words * np.arange(len(ROLES)).reshape(-1, 1, 1)
        self.ends = np.arange(4 * len(ROLES) + 1) * self.words
        for table in (self.corner, self.tag, self.roles, self.ends):
            table.flags.writeable = False


@functools.lru_cache(maxsize=4)
def _routes(shape: tuple[int, int]) -> _Routes:
    """The routing tables of a grid, built once and shared by every
    accumulator on it."""
    return _Routes(shape)


def _hazards(routes: _Routes, s: IweScatter, d_vx: np.ndarray,
             d_vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The issued updates and the forwarding hits per bank key (role * 4 +
    parity bank), each (12,), of one readout window's votes, scattered by
    ``s`` with derivative votes ``d_vx``, ``d_vy``; the window starts with
    the pipelines drained.

    The streams follow the datapath's routing, looked up in ``routes`` by
    each stencil's anchor, with no sort. An event whose clamped stencil
    floor (i, j) has parity q = (i & 1) + 2 * (j & 1) sends its corner
    c = cx + 2 * cy, pixel (i + cx, j + cy), to bank c XOR q: bank b holds
    corner b XOR q. So within a role each event issues at most one update
    per bank, and masking the (role, bank, event) issued flags in C order
    lists each bank's stream in issue order.
    """
    anchor = s._index[:, 0]
    size = s._index.size
    # (4, n): each bank's corner, as a flat index into the (n, 4) stencil
    corner = np.take(routes.corner, anchor, axis=1)
    corner += np.arange(0, size, 4)
    # each role's non-zero flags, and one False flag read for OFF corners
    nonzero = np.empty((len(ROLES), size + 1), dtype=bool)
    nonzero[:, size] = False
    for votes, flags in zip((s._weight, d_vx, d_vy), nonzero):
        np.not_equal(votes.ravel(), 0.0, out=flags[:size])
    issued = np.take(nonzero, corner, axis=1, mode="clip")
    tags = (np.take(routes.tag, anchor, axis=1) + routes.roles)[issued]
    hit = np.zeros(tags.size, dtype=bool)
    for d in range(1, PIPELINE_DEPTH + 1):
        hit[d:] |= tags[d:] == tags[:-d]
    # the streams lie in key order, so a binary search finds their bounds
    ends = np.searchsorted(tags, routes.ends)
    hits = np.bincount(tags[hit] // routes.words, minlength=4 * len(ROLES))
    return ends[1:] - ends[:-1], hits


class _Accumulator:
    """What both accumulators share: the readout window, the batches (not
    copies) of every ``accumulate`` call since the last readout, and its
    one vote at ``read_and_clear``."""

    def __init__(self, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        self.shape = shape
        self._window: list[WarpedBatch] = []
        self._scatter = IweScatter(0, shape)

    def accumulate(self, warped: WarpedBatch) -> None:
        self._window.append(warped)

    def read_and_clear(self) -> ImageSet:
        """Vote the window's batches, concatenated in call order, once
        through one ``IweScatter``; close the window and return its images.
        The scatter, with its buffers, is kept while the windows' event
        count repeats."""
        window = self._window
        if len(window) == 1:
            warped = window[0]
        else:
            warped = WarpedBatch(
                np.concatenate([np.empty((2, 0)), *(w.xy for w in window)], axis=1),
                np.concatenate([np.empty(0), *(w.dts for w in window)]))
        if len(self._scatter._index) != len(warped):
            self._scatter = IweScatter(len(warped), self.shape)
        s = self._scatter
        s.scatter(warped)
        d_vx, d_vy = s.derivative_votes()
        self._drain(s, d_vx, d_vy)
        self._window = []
        return ImageSet(iwe=s.iwe, d_vx=_image(s._index, d_vx, self.shape),
                        d_vy=_image(s._index, d_vy, self.shape),
                        in_bounds_mass=s.in_bounds_mass)

    def _drain(self, s: IweScatter, d_vx: np.ndarray, d_vy: np.ndarray) -> None:
        """What the datapath does with a window's votes as its pipelines
        drain at readout; the reference has no pipelines."""


class NaiveAccumulator(_Accumulator):
    """Reference accumulator of the three images, with clear-on-read."""


class BankedAccumulator(_Accumulator):
    """The banked accumulation datapath: 3 image roles x 4 parity banks.

    Pixel (i, j) lives in bank ``(i & 1) + 2 * (j & 1)`` at word
    ``(j >> 1) * (w // 2) + (i >> 1)``, so one event's four stencil pixels sit
    in four different banks and could be written in one hardware cycle:
    corner c = cx + 2 * cy of a stencil whose floor has parity q goes to bank
    c XOR q, and bank b holds corner b XOR q. So each role's stream into a
    bank is the window's events in order, each sending at most one update.
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
    A window's hazards are counted then, once, from the readout's own votes.
    The two counters cover the windows read out so far, over the
    accumulator's life; an open window counts nothing until it is read out,
    and reading a counter votes nothing.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        check_bank_grid(shape)
        super().__init__(shape)
        self._routes = _routes(tuple(shape))
        # the _hazards of the windows read out so far
        self._counts = np.zeros((2, 4 * len(ROLES)), dtype=np.int64)

    def _drain(self, s: IweScatter, d_vx: np.ndarray, d_vy: np.ndarray) -> None:
        issued, hits = _hazards(self._routes, s, d_vx, d_vy)
        self._counts[0] += issued
        self._counts[1] += hits

    def _per_bank(self, which: int, role: str) -> tuple[int, int, int, int]:
        """Row ``which`` of the ``_hazards`` counts for one role's banks,
        over the windows read out so far."""
        if role not in ROLES:
            raise ValueError(f"unknown image role {role!r}, expected one of {ROLES}")
        k = 4 * ROLES.index(role)
        return tuple(self._counts[which, k:k + 4].tolist())  # type: ignore[return-value]

    def bank_occupancy(self, role: str = "iwe") -> tuple[int, int, int, int]:
        """Non-zero updates issued per parity bank for one image role."""
        return self._per_bank(0, role)

    def forwarding_hits(self, role: str = "iwe") -> tuple[int, int, int, int]:
        """Updates per parity bank for one image role that read their word
        from the forwarding buffer, as it was still in flight."""
        return self._per_bank(1, role)
