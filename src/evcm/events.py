"""Event data model, text ingestion, batch construction and ROI filtering.

Events stay columnar from the parser to the tracker: ``parse_events``
returns an ``EventArray`` of int64/int8 columns, and batches are built from
its slices. An event batch carries the event coordinates together with the
reference time (the batch midpoint) and per-event time offsets normalized
to [-1, 1].
ROI filtering re-bases coordinates to be relative to the ROI origin; the
normalization computed on the full batch is kept, so filtering never
changes the time scale.
"""

from __future__ import annotations

import io
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


class EventParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EventValidationError(ValueError):
    """Event fields outside the declared sensor geometry."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class EventArray:
    """Columnar event stream; slicing returns a view-backed ``EventArray``."""

    ts: np.ndarray  # int64, microseconds
    xs: np.ndarray  # int64, pixel columns
    ys: np.ndarray  # int64, pixel rows
    ps: np.ndarray  # int8, -1/+1

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    def __getitem__(self, key: slice) -> EventArray:
        if not isinstance(key, slice):
            raise TypeError("EventArray supports slices only")
        return EventArray(self.ts[key], self.xs[key], self.ys[key], self.ps[key])


@dataclass(frozen=True)
class Roi:
    """Tracked region: origin (sub-pixel, real-valued) and integer size."""

    x0: float
    y0: float
    w: int
    h: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError(f"ROI origin ({self.x0}, {self.y0}) must lie in the finite plane")
        if self.w < 2 or self.h < 2:
            raise ValueError(f"ROI must be at least 2x2, got {self.w}x{self.h}")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x0 + self.w / 2.0, self.y0 + self.h / 2.0)


@dataclass(frozen=True)
class EventBatch:
    """Event coordinates with the batch's reference time and normalized dts.

    Coordinates are relative to ``origin`` (global pixel offset); a batch
    built straight from the stream has origin (0, 0).
    """

    xs: np.ndarray        # int64, origin-relative columns
    ys: np.ndarray        # int64, origin-relative rows
    t_ref: float          # microseconds
    half_span_us: float   # (t_last - t_first) / 2
    norm_dts: np.ndarray  # float64 in [-1, 1]
    origin: tuple[int, int] = (0, 0)

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    @cached_property
    def xy(self) -> np.ndarray:
        """The coordinates as the float64 rows x, y of one (2, n) block,
        converted on first use and kept with the batch, whose columns are
        not written after it is built."""
        return np.array((self.xs, self.ys), dtype=np.float64)


# Only "\n" ends a line: "\r" (as in CRLF files) becomes field whitespace, and
# NUL and non-ASCII bytes become "?", which no number contains, so they fail
# the parse as they did when decoded.
_FILE_TABLE = b"?" + bytes(range(1, 13)) + b" " + bytes(range(14, 128)) + b"?" * 128
_COMMENT_LINE = re.compile(rb"^[ \t\x0b\x0c\x1c-\x1f]*#.*", re.MULTILINE)
# The parse reads a file in blocks of whole lines of about this many bytes, so
# its memory peak is the columns plus one block's temporaries.
_BLOCK_BYTES = 1 << 20
# Pass 1 counts a block's "\n"s over slices of this many bytes: a slice's
# bool temporary is reused from the heap, where a whole block's is fresh
# pages, faulted in on every block (a 0.8 MB block on a 2-core Xeon: 0.17
# against 0.5 ms).
_COUNT_BYTES = 1 << 16


def _blocks(file):
    """The rest of ``file`` in blocks of whole lines, each about
    ``_BLOCK_BYTES`` long: a block ends after the last ``\\n`` of its reads,
    or at the end of the file. A line longer than a block stays whole.

    A read asks for a block, or for what a regular file still holds if that
    is less, so a small file is not read with a whole block's request. A
    pipe, or a file whose size reads 0, is read a block at a time.
    """
    info = os.fstat(file.fileno())
    sized = stat.S_ISREG(info.st_mode) and info.st_size > 0
    left = max(info.st_size - file.tell(), 0) if sized else math.inf
    head = []  # the reads since the last "\n"
    while len(chunk := file.read(min(_BLOCK_BYTES, left))) == _BLOCK_BYTES:
        left -= _BLOCK_BYTES
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*head, chunk[:cut]])
            head = []
        head.append(chunk[cut:])
    if tail := b"".join([*head, chunk]):
        yield tail


def _newlines(block: bytes) -> int:
    """The number of ``\\n``s in ``block``, summed over ``_COUNT_BYTES`` slices."""
    data = np.frombuffer(block, np.uint8)
    return sum([np.count_nonzero(data[i : i + _COUNT_BYTES] == ord("\n"))
                for i in range(0, len(data), _COUNT_BYTES)])


def _clean(block: bytes) -> bytes:
    """``block`` as ASCII whose only line break is ``\\n``, with its comment
    lines emptied but kept, so lines still count; a block that needs neither
    is not copied."""
    if not block.isascii() or b"\0" in block or b"\r" in block:
        block = block.translate(_FILE_TABLE)
    if b"#" in block:
        block = _COMMENT_LINE.sub(b"", block)
    return block


def _columns(buf: bytes, seconds: bool) -> tuple[np.ndarray, ...]:
    """Parse every non-blank line of ``buf`` as ``t x y p``.

    ``seconds`` reads every timestamp as seconds, else as integer
    microseconds; it is fixed for the whole file, so a line is valid or not
    on its own, whatever range of lines it is parsed in. Returns the fields
    as views of one row array, ``x y p`` as int64 and ``t`` in microseconds:
    int64, or for seconds float64 rounded half to even, as ``round()`` does.
    Raises ValueError or OverflowError when any line has the wrong field
    count, a field that is not a number or a value beyond int64.
    """
    t_type = np.float64 if seconds else np.int64
    row = [("t", t_type), ("x", np.int64), ("y", np.int64), ("p", np.int64)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # input with no data
        rows = np.loadtxt(io.BytesIO(buf), dtype=row, comments=None, ndmin=1)
    ts = rows["t"]
    if seconds:
        ts *= 1e6
        if not np.all((ts >= -(2.0**63)) & (ts < 2.0**63)):
            raise OverflowError("timestamp beyond int64")
        np.rint(ts, out=ts)
    return ts, rows["x"], rows["y"], rows["p"]


def _valid_columns(buf: bytes, seconds: bool, sensor_size: tuple[int, int]):
    """The columns of ``buf``, or None if any line is malformed or invalid."""
    try:
        ts, xs, ys, ps = _columns(buf, seconds)
    except (ValueError, OverflowError):
        return None
    # one unsigned compare per field: a negative value reads as >= 2^63
    bad = ts < 0
    bad |= xs.view(np.uint64) >= sensor_size[0]
    bad |= ys.view(np.uint64) >= sensor_size[1]
    bad |= ps.view(np.uint64) > 1
    return None if bad.any() else (ts, xs, ys, ps)


def _first_error(
    buf: bytes, lines_before: int, seconds: bool, sensor_size: tuple[int, int]
) -> ValueError:
    """Locate the first line of ``buf`` that fails the whole-array checks and
    describe it, numbered in a file that holds ``lines_before`` lines before
    ``buf``.

    Bisects over line ranges with the same checks: the first bad line lies in
    lines [lo, hi), and every line before lo is good. The ranges halve, so
    locating costs about one more parse of the buffer.
    """
    nl = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == ord("\n"))
    bounds = np.concatenate(([0], nl + 1, [len(buf) + 1])).tolist()
    lo, hi = 0, len(bounds) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _valid_columns(buf[bounds[lo] : bounds[mid]], seconds, sensor_size) is None:
            hi = mid
        else:
            lo = mid
    line = buf[bounds[lo] : bounds[hi]]
    return _line_error(line, lines_before + lo + 1, seconds, sensor_size)


def _line_error(line: bytes, line_no: int, seconds: bool, sensor_size) -> ValueError:
    """The error for one line that failed the whole-array checks."""
    text = line.decode("ascii").strip()
    fields = text.split()
    if len(fields) != 4:
        return EventParseError(line_no, f"expected 4 fields, got {len(fields)}")
    try:
        t, x, y, p = (int(c[0]) for c in _columns(line, seconds))
    except (ValueError, OverflowError):
        return EventParseError(line_no, f"field not a number or beyond int64 in {text!r}")
    if min(t, x, y) < 0:
        return EventValidationError(line_no, f"negative field in {text!r}")
    if p not in (0, 1):
        return EventParseError(line_no, f"polarity must be 0 or 1, got {p}")
    sw, sh = sensor_size
    if x >= sw or y >= sh:
        return EventValidationError(
            line_no, f"coordinates ({x}, {y}) outside sensor {sw}x{sh}"
        )
    return EventParseError(line_no, f"field not a number or beyond int64 in {text!r}")


def parse_events(path, sensor_size: tuple[int, int]) -> EventArray:
    """Parse an events file of ``t x y p`` lines against a ``(W, H)`` sensor.

    The file is read in two passes over blocks of whole lines, about 1 MiB
    each. The first counts the lines and fixes the timestamp unit; the second
    parses each block with numpy's C text reader, runs every check on its
    whole columns and writes its fields into columns allocated once for the
    line count. So the memory peak is the columns plus one block's
    temporaries, however long the file. A file of one block is read once,
    and so is a pipe, whose blocks are all kept for the second pass.
    Only ``\\n`` ends a line, and ``\\r`` (as in CRLF files) is field
    whitespace. The timestamp unit belongs to the file: if any non-comment
    line holds a ``.``, every timestamp is in seconds (``0.5``, ``5.``,
    ``1e-05`` and ``1`` alike, rounded half to even to integer
    microseconds); otherwise every timestamp is an integer of microseconds.
    Polarity 0 maps to -1, 1 to +1. Lines whose first non-blank character is
    ``#`` and blank lines are skipped but still counted. A malformed line
    raises ``EventParseError`` and a field outside the sensor or below zero
    ``EventValidationError``, each carrying the 1-based number of the first
    bad line in the file. Events built in memory need no parse: make an
    ``EventArray`` from their columns, as ``evcm.synth`` does.
    """
    with open(path, "rb") as file:
        # pass 1: the "\n"s of each block, and the file's timestamp unit;
        # the blocks are kept for pass 2 while there is one, or all of them
        # if the file (a pipe) cannot be read again
        counts, seconds, kept = [], False, []
        for block in _blocks(file):
            counts.append(_newlines(block))
            if not seconds and b"." in block:
                block = _clean(block)
                seconds = b"." in block  # one unit for the whole file
            if len(counts) == 1 or not file.seekable():
                kept.append(block)
            else:
                kept.clear()
        # pass 2: each block parsed, checked and written into its slice of
        # columns with a row for each line, the last of which may lack "\n"
        if len(kept) < len(counts):
            file.seek(0)
            kept = _blocks(file)
        rows = sum(counts) + 1
        cols = [np.empty(rows, dtype) for dtype in (np.int64,) * 3 + (np.int8,)]
        n = lines_before = 0
        for block, count in zip(kept, counts):
            block = _clean(block)
            fields = _valid_columns(block, seconds, sensor_size)
            if fields is None:
                raise _first_error(block, lines_before, seconds, sensor_size)
            k = len(fields[0])
            for col, field in zip(cols, fields):
                col[n : n + k] = field
            n += k
            lines_before += count
    for col in cols:  # free the skipped lines' rows, in place with no copy
        col.resize(n, refcheck=False)
    ts, xs, ys, ps = cols
    ps *= 2  # polarity 0/1 to -1/+1, in place
    ps -= 1
    return EventArray(ts, xs, ys, ps)


def make_batch(events: EventArray) -> EventBatch:
    """Build a batch: reference time at the midpoint, dts scaled to [-1, 1].

    A zero-span batch (all timestamps equal) gets all-zero normalized dts.
    """
    n = len(events)
    if n == 0:
        raise ValueError("cannot build a batch from an empty event sequence")
    ts = events.ts
    if np.any(np.diff(ts) < 0):
        raise ValueError("events must be sorted by timestamp")
    t_first = float(ts[0])
    t_last = float(ts[-1])
    t_ref = t_first + (t_last - t_first) / 2.0
    half = (t_last - t_first) / 2.0
    if half > 0.0:
        norm_dts = (ts.astype(np.float64) - t_ref) / half
    else:
        norm_dts = np.zeros(n, dtype=np.float64)
    return EventBatch(events.xs, events.ys, t_ref, half, norm_dts)


def filter_roi(batch: EventBatch, roi: Roi) -> EventBatch:
    """Keep events inside the ROI, re-based to ROI-local coordinates.

    The original batch's reference time and normalization scale are kept.
    The result may be empty; callers must handle that. Filtering an
    already-filtered batch with the same ROI is a no-op (the containment
    test is evaluated in the batch's own coordinate frame). The test is
    exact while each coordinate's offset from the ROI origin fits in int64,
    as it does for any coordinates of at least 0. An ROI whose origin lies
    beyond int64's reach of the batch origin holds none of them, and keeps
    nothing.
    """
    gx0 = int(np.floor(roi.x0))
    gy0 = int(np.floor(roi.y0))
    dx = gx0 - batch.origin[0]
    dy = gy0 - batch.origin[1]
    xs, ys = batch.xs, batch.ys
    if max(abs(dx), abs(dy)) < 2**63:
        xs = xs - dx
        ys = ys - dy
        # 0 <= x < w as one unsigned compare: a negative x reads as >= 2^63
        mask = xs.view(np.uint64) < roi.w
        mask &= ys.view(np.uint64) < roi.h
        # three gathers at the kept positions cost less than three
        # boolean-mask selections, each of which scans the mask again
        kept = np.flatnonzero(mask)
    else:
        kept = np.empty(0, dtype=np.intp)
    return replace(
        batch,
        xs=xs[kept],
        ys=ys[kept],
        norm_dts=batch.norm_dts[kept],
        origin=(gx0, gy0),
    )
