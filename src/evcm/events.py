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
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

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


# Only "\n" ends a line: "\r" (as in CRLF files) becomes field whitespace, and
# NUL and non-ASCII bytes become "?", which no number contains, so they fail
# the parse as they did when decoded.
_FILE_TABLE = b"?" + bytes(range(1, 13)) + b" " + bytes(range(14, 128)) + b"?" * 128
_COMMENT_LINE = re.compile(rb"^[ \t\x0b\x0c\x1c-\x1f]*#.*", re.MULTILINE)


def _read_file(path) -> bytes:
    """The whole file as one ASCII buffer whose only line break is ``\\n``;
    a file that needs no translation is not copied (nor its memory peak
    paid)."""
    data = Path(path).read_bytes()
    if data.isascii() and b"\0" not in data and b"\r" not in data:
        return data
    return data.translate(_FILE_TABLE)


def _columns(
    buf: bytes, seconds: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse every non-blank line of ``buf`` as ``t x y p``.

    ``seconds`` reads every timestamp as seconds, else as integer
    microseconds; it is fixed for the whole file, so a line is valid or not
    on its own, whatever range of lines it is parsed in. Raises ValueError
    or OverflowError when any line has the wrong field count, a field that
    is not a number or a value beyond int64.
    """
    t_type = np.float64 if seconds else np.int64
    row = [("t", t_type), ("x", np.int64), ("y", np.int64), ("p", np.int64)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # input with no data
        rows = np.loadtxt(io.BytesIO(buf), dtype=row, comments=None, ndmin=1)
    ts = rows["t"]
    if seconds:
        ts = ts * 1e6
        if not np.all((ts >= -(2.0**63)) & (ts < 2.0**63)):
            raise OverflowError("timestamp beyond int64")
        ts = np.rint(ts).astype(np.int64)  # round half to even, as round() does
    return tuple(np.ascontiguousarray(c) for c in (ts, rows["x"], rows["y"], rows["p"]))


def _valid_columns(buf: bytes, seconds: bool, sensor_size: tuple[int, int]):
    """The columns of ``buf``, or None if any line is malformed or invalid."""
    try:
        ts, xs, ys, ps = _columns(buf, seconds)
    except (ValueError, OverflowError):
        return None
    bad = (ts < 0) | (xs < 0) | (ys < 0) | ((ps != 0) & (ps != 1))
    bad |= (xs >= sensor_size[0]) | (ys >= sensor_size[1])
    return None if bad.any() else (ts, xs, ys, ps)


def _first_error(buf: bytes, seconds: bool, sensor_size: tuple[int, int]) -> ValueError:
    """Locate the first line that fails the whole-array checks and describe it.

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
    return _line_error(buf[bounds[lo] : bounds[hi]], lo + 1, seconds, sensor_size)


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

    The whole file is read into one buffer and parsed by numpy's C text
    reader; every check runs on whole columns. Only ``\\n`` ends a line, and
    ``\\r`` (as in CRLF files) is field whitespace. The timestamp unit belongs
    to the file: if any non-comment line holds a ``.``, every timestamp is in
    seconds (``0.5``, ``5.``, ``1e-05`` and ``1`` alike, rounded half to even
    to integer microseconds); otherwise every timestamp is an integer of
    microseconds. Polarity 0 maps to -1, 1 to +1. Lines whose first
    non-blank character is ``#`` and blank lines are skipped but still
    counted. A malformed line raises ``EventParseError`` and a field outside
    the sensor or below zero ``EventValidationError``, each carrying the
    1-based number of the first bad line. Events built in memory need no
    parse: make an ``EventArray`` from their columns, as ``evcm.synth`` does.
    """
    buf = _read_file(path)
    if b"#" in buf:
        buf = _COMMENT_LINE.sub(b"", buf)  # keeps the "\n", so lines still count
    seconds = b"." in buf  # one unit for the whole file
    cols = _valid_columns(buf, seconds, sensor_size)
    if cols is None:
        raise _first_error(buf, seconds, sensor_size)
    ts, xs, ys, ps = cols
    return EventArray(ts, xs, ys, (2 * ps - 1).astype(np.int8))


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
    test is evaluated in the batch's own coordinate frame).
    """
    gx0 = int(np.floor(roi.x0))
    gy0 = int(np.floor(roi.y0))
    lx0 = gx0 - batch.origin[0]
    ly0 = gy0 - batch.origin[1]
    mask = (
        (batch.xs >= lx0)
        & (batch.xs < lx0 + roi.w)
        & (batch.ys >= ly0)
        & (batch.ys < ly0 + roi.h)
    )
    return replace(
        batch,
        xs=batch.xs[mask] - lx0,
        ys=batch.ys[mask] - ly0,
        norm_dts=batch.norm_dts[mask],
        origin=(gx0, gy0),
    )
