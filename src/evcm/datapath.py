"""The hardware model: the accumulation datapath, its bank routing and the
cycle count of a batch.

This module owns every constant the hardware fixes: the pipeline depth, the
image roles, the banks' grid rule and routing, the latencies, the clock and
the reference host times. The estimator's kernel, ``IweScatter``, lives in
``voting``; the accumulators here vote through it.

* ``NaiveAccumulator`` and ``BankedAccumulator`` share one readout window,
  the batches of every ``accumulate`` call since the last readout. At
  ``read_and_clear`` they vote its blocks, concatenated into one (a window
  of one call is voted as it is), through one ``IweScatter``, whose
  ``image`` of its derivative votes gives the other two images. ``np.bincount`` adds each
  pixel's votes in stream order, so every pixel is the same sequential sum
  however a window was cut into calls.
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
* The cycle model, in closed form: per batch, the full batch is
  preprocessed once (N cycles), then every optimization iteration replays
  the ROI events through warping and voting (n + fixed latencies) and reads
  the grid back four addresses at a time (P/4). Reference CPU/GPU timings
  ship as defaults for the speedup table.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .voting import PAD, IweScatter, VotingConfigError
from .warp import WarpedBatch

# Accumulation pipeline: read, add, write-back. An update is in flight for
# PIPELINE_DEPTH cycles; the forwarding buffer covers exactly that window.
PIPELINE_DEPTH = 3

ROLES = ("iwe", "d_vx", "d_vy")

READOUT_LATENCY = 32
VOTING_LATENCY = 35
DEFAULT_CLOCK_HZ = 210e6

# Published host timings for the 5000-event / 64x64 ROI / 100-iteration batch.
REFERENCE_TIMES: dict[str, float] = {
    "CPU (i5-11300H)": 0.18596,
    "GPU (RTX 3050 Ti)": 0.47351,
}


@dataclass
class ImageSet:
    """The three accumulated images over an ROI grid, plus accepted mass."""

    iwe: np.ndarray   # (h, w)
    d_vx: np.ndarray  # (h, w)
    d_vy: np.ndarray  # (h, w)
    in_bounds_mass: float


def check_bank_grid(shape: tuple[int, int]) -> None:
    """The banks' rule: each parity bank holds one pixel of every 2x2 block,
    so both sides of the grid must be even."""
    w, h = shape
    if w % 2 != 0 or h % 2 != 0:
        raise VotingConfigError(
            f"banked accumulator needs even grid dimensions, got {w}x{h}"
        )


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


def _hazards(routes: _Routes, s: IweScatter) -> tuple[np.ndarray, np.ndarray]:
    """The issued updates and the forwarding hits per bank key (role * 4 +
    parity bank), each (12,), of one readout window's votes: the (3, n, 4)
    role block of ``s``, scattered and with its ``derivative_votes``
    written; the window starts with the pipelines drained.

    The streams follow the datapath's routing, looked up in ``routes`` by
    each stencil's anchor, with no sort. An event whose clamped stencil
    floor (i, j) has parity q = (i & 1) + 2 * (j & 1) sends its corner
    c = cx + 2 * cy, pixel (i + cx, j + cy), to bank c XOR q: bank b holds
    corner b XOR q. So within a role each event issues at most one update
    per bank, and masking the (role, bank, event) issued flags in C order
    lists each bank's stream in issue order. One ``np.not_equal`` over the
    role block flags every role's non-zero votes.
    """
    anchor = s._index[:, 0]
    size = s._index.size
    # (4, n): each bank's corner, as a flat index into the (n, 4) stencil
    corner = np.take(routes.corner, anchor, axis=1)
    corner += np.arange(0, size, 4)
    # each role's non-zero flags, and one False flag read for OFF corners
    nonzero = np.empty((len(ROLES), size + 1), dtype=bool)
    nonzero[:, size] = False
    np.not_equal(s._roles.reshape(len(ROLES), size), 0.0, out=nonzero[:, :size])
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
        self.shape = shape
        self._window: list[WarpedBatch] = []
        self._scatter = IweScatter(0, shape)  # checks the grid

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
        self._drain(s)
        self._window = []
        return ImageSet(iwe=s.iwe, d_vx=s.image(d_vx), d_vy=s.image(d_vy),
                        in_bounds_mass=s.in_bounds_mass)

    def _drain(self, s: IweScatter) -> None:
        """What the datapath does with a window's votes, the role block of
        the scatter ``s``, as its pipelines drain at readout; the reference
        has no pipelines."""


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

    def _drain(self, s: IweScatter) -> None:
        issued, hits = _hazards(self._routes, s)
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


@dataclass(frozen=True)
class CycleParams:
    N: int                                  # events in the batch
    T: int                                  # optimization iterations
    n: int                                  # events inside the ROI
    P: int                                  # ROI pixel count, divisible by 4
    f_clk: float = DEFAULT_CLOCK_HZ

    def __post_init__(self) -> None:
        for name in ("N", "T", "n", "P"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n > self.N:
            raise ValueError(f"n ({self.n} ROI events) must not exceed N ({self.N}): "
                             f"the ROI events are a subset of the batch")
        if self.P % 4 != 0:
            raise ValueError(f"P must be divisible by 4, got {self.P}")
        # chained comparisons are False for NaN, so NaN fails the check
        if not 0 < self.f_clk < math.inf:
            raise ValueError(f"f_clk must be positive and finite, got {self.f_clk}")


def cycles_per_batch(p: CycleParams) -> int:
    """Clock cycles to process one batch: N + T * (n + L_r + P/4 + L_v),
    with the latencies L_r = READOUT_LATENCY and L_v = VOTING_LATENCY."""
    return p.N + p.T * (p.n + READOUT_LATENCY + p.P // 4 + VOTING_LATENCY)


def batch_time(p: CycleParams) -> float:
    """Projected wall-clock seconds for one batch at the given clock."""
    return cycles_per_batch(p) / p.f_clk


def speedup_report(
    p: CycleParams,
    measured_times: dict[str, float] | None = None,
    fmt: str = "text",
) -> str:
    """Comparison table: each measured time against the projected batch time.

    ``measured_times`` maps label -> seconds; None selects the published
    reference timings. Speedups are displayed to 3 significant figures. A
    projection of 0 cycles has no speedup against it and raises ValueError.
    """
    if measured_times is None:
        measured_times = REFERENCE_TIMES
    cycles = cycles_per_batch(p)
    if cycles == 0:
        raise ValueError("the FPGA projection is 0 cycles per batch: no speedup is defined")
    fpga_s = batch_time(p)
    rows = [("FPGA projection", fpga_s, 1.0)]
    rows.extend(
        (label, t, t / fpga_s) for label, t in measured_times.items()
    )
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("label,time_ms,speedup\n")
        for label, t, s in rows:
            buf.write(f"{label},{t * 1e3:.6g},{s:.3g}\n")
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    buf.write(f"cycles per batch: {cycles}\n")
    buf.write(f"clock: {p.f_clk / 1e6:g} MHz\n")
    width = max(len(label) for label, _, _ in rows)
    buf.write(f"{'target':<{width}}  {'time':>12}  {'speedup':>8}\n")
    for label, t, s in rows:
        buf.write(f"{label:<{width}}  {t * 1e3:>9.4f} ms  {s:>7.3g}x\n")
    return buf.getvalue()
