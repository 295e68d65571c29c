"""Event data model, text ingestion, batch construction and ROI filtering.

Events stay columnar from the parser to the tracker: ``parse_events``
returns an ``EventArray`` of int64/int8 columns, and batches are built from
its slices. An event batch carries its events together with the reference
time (the batch midpoint) and per-event time offsets normalized to [-1, 1].
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
    """Ordered event collection with derived reference time and normalized dts.

    Coordinates are relative to ``origin`` (global pixel offset); a batch
    built straight from the stream has origin (0, 0). ``extent`` is the
    (w, h) of the ROI the batch was filtered to, if any.
    """

    ts: np.ndarray        # int64, microseconds, non-decreasing
    xs: np.ndarray        # int64, origin-relative columns
    ys: np.ndarray        # int64, origin-relative rows
    ps: np.ndarray        # int8, -1/+1
    t_ref: float          # microseconds
    half_span_us: float   # (t_last - t_first) / 2
    norm_dts: np.ndarray  # float64 in [-1, 1]
    origin: tuple[int, int] = (0, 0)
    extent: tuple[int, int] | None = None

    def __len__(self) -> int:
        return int(self.ts.shape[0])


def _ascii_table(to_space: bytes = b"", to_newline: bytes = b"") -> bytes:
    """``bytes.translate`` table: NUL and non-ASCII bytes become ``?``, which
    no number contains, so they fail the parse as they did when decoded."""
    table = bytearray(b"?" + bytes(range(1, 128)) + b"?" * 128)
    for c in to_space:
        table[c] = ord(" ")
    for c in to_newline:
        table[c] = ord("\n")
    return bytes(table)


# A file or an iterable item splits lines on "\n" only; bytes split as
# ``str.splitlines`` does. Any other line break is field whitespace.
_FILE_TABLE = _ascii_table(to_space=b"\r")
_ITEM_TABLE = _ascii_table(to_space=b"\r\n")
_BYTES_TABLE = _ascii_table(to_newline=b"\r\x0b\x0c\x1c\x1d\x1e")
_COMMENT_LINE = re.compile(rb"^[ \t\x0b\x0c\x1c-\x1f]*#.*", re.MULTILINE)
# A timestamp is read as text when the buffer holds seconds timestamps, so
# each token can be told apart; a token that fills the field may have been
# truncated and is rejected.
_TEXT_T_ROW = np.dtype(
    [("t", "S32"), ("x", np.int64), ("y", np.int64), ("p", np.int64)]
)


def _translate(data: bytes, table: bytes) -> bytes:
    """``data.translate(table)``, skipping the copy (and its memory peak) when
    nothing would change."""
    if data.isascii() and not any(c in data for c in range(128) if table[c] != c):
        return data
    return data.translate(table)


def _read_source(source) -> bytes:
    """The whole source as one ASCII buffer whose only line break is ``\\n``."""
    if isinstance(source, (str, Path)):
        return _translate(Path(source).read_bytes(), _FILE_TABLE)
    if isinstance(source, bytes):
        return _translate(source.replace(b"\r\n", b"\n"), _BYTES_TABLE)
    return b"\n".join(
        (ln if isinstance(ln, bytes) else ln.encode("ascii", "replace"))
        .translate(_ITEM_TABLE)
        for ln in source
    )


def _loadtxt(buf: bytes, dtype, ndmin: int) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # input with no data
        return np.loadtxt(io.BytesIO(buf), dtype=dtype, comments=None, ndmin=ndmin)


def _parse_tokens(tokens: np.ndarray, dtype) -> np.ndarray:
    """Parse fixed-width byte-string tokens with the C reader, one per line."""
    rec = tokens.view(np.uint8).reshape(len(tokens), tokens.itemsize).copy()
    rec[rec == 0] = ord(" ")  # the padding; tokens hold no NUL
    rec[:, -1] = ord("\n")  # tokens are shorter than the field
    return _loadtxt(rec.tobytes(), dtype, ndmin=1)


def _columns(
    buf: bytes, as_text: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse every non-blank line of ``buf`` as ``t x y p``.

    ``as_text`` reads timestamps as text so seconds can be told from
    microseconds; it is fixed for the whole source, so a line is valid or
    not on its own, whatever range of lines it is parsed in. Raises
    ValueError or OverflowError when any line has the wrong field count, a
    field that is not a number or a value beyond int64.
    """
    if not as_text:
        rows = _loadtxt(buf, np.int64, ndmin=2)
        if rows.size and rows.shape[1] != 4:
            raise ValueError("expected 4 fields")
        ts, xs, ys, ps = np.ascontiguousarray(rows.reshape(-1, 4).T)
        return ts, xs, ys, ps
    rows = _loadtxt(buf, _TEXT_T_ROW, ndmin=1)
    t_txt = rows["t"]
    if np.any(np.strings.str_len(t_txt) >= t_txt.itemsize):
        raise ValueError("timestamp too long")
    seconds = np.strings.find(t_txt, b".") >= 0
    ts = np.empty(len(rows), dtype=np.int64)
    ts[~seconds] = _parse_tokens(t_txt[~seconds], np.int64)
    us = _parse_tokens(t_txt[seconds], np.float64) * 1e6
    if not np.all((us >= -(2.0**63)) & (us < 2.0**63)):
        raise OverflowError("timestamp beyond int64")
    ts[seconds] = np.rint(us)  # round half to even, as round() does
    return ts, rows["x"].copy(), rows["y"].copy(), rows["p"].copy()


def _valid_columns(buf: bytes, as_text: bool, sensor_size: tuple[int, int] | None):
    """The columns of ``buf``, or None if any line is malformed or invalid."""
    try:
        ts, xs, ys, ps = _columns(buf, as_text)
    except (ValueError, OverflowError):
        return None
    bad = (ts < 0) | (xs < 0) | (ys < 0) | ((ps != 0) & (ps != 1))
    if sensor_size is not None:
        bad |= (xs >= sensor_size[0]) | (ys >= sensor_size[1])
    return None if bad.any() else (ts, xs, ys, ps)


def _first_error(
    buf: bytes, as_text: bool, sensor_size: tuple[int, int] | None
) -> ValueError:
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
        if _valid_columns(buf[bounds[lo] : bounds[mid]], as_text, sensor_size) is None:
            hi = mid
        else:
            lo = mid
    return _line_error(buf[bounds[lo] : bounds[hi]], lo + 1, as_text, sensor_size)


def _line_error(line: bytes, line_no: int, as_text: bool, sensor_size) -> ValueError:
    """The error for one line that failed the whole-array checks."""
    text = line.decode("ascii").strip()
    fields = text.split()
    if len(fields) != 4:
        return EventParseError(line_no, f"expected 4 fields, got {len(fields)}")
    try:
        t, x, y, p = (int(c[0]) for c in _columns(line, as_text))
    except (ValueError, OverflowError):
        return EventParseError(line_no, f"field not a number or beyond int64 in {text!r}")
    if min(t, x, y) < 0:
        return EventValidationError(line_no, f"negative field in {text!r}")
    if p not in (0, 1):
        return EventParseError(line_no, f"polarity must be 0 or 1, got {p}")
    if sensor_size is not None and (x >= sensor_size[0] or y >= sensor_size[1]):
        sw, sh = sensor_size
        return EventValidationError(
            line_no, f"coordinates ({x}, {y}) outside sensor {sw}x{sh}"
        )
    return EventParseError(line_no, f"field not a number or beyond int64 in {text!r}")


def parse_events(
    source,
    fmt: str = "text",
    sensor_size: tuple[int, int] | None = None,
) -> EventArray:
    """Parse a line-oriented ``t x y p`` event source into columns.

    ``source`` is a path, the file's bytes, or an iterable of lines. The
    whole source is read into one buffer and parsed by numpy's C text reader;
    every check runs on whole columns. Timestamps containing a decimal point
    are seconds (rounded half to even to integer microseconds); plain
    integers are microseconds. Polarity 0 maps to -1, 1 to +1. Lines whose
    first non-blank character is ``#`` and blank lines are skipped but still
    counted. A malformed line raises ``EventParseError`` and a field outside
    the sensor or below zero ``EventValidationError``, each carrying the
    1-based number of the first bad line.
    """
    if fmt != "text":
        raise ValueError(f"unsupported format: {fmt!r}")
    buf = _read_source(source)
    if b"#" in buf:
        buf = _COMMENT_LINE.sub(b"", buf)  # keeps the "\n", so lines still count
    as_text = b"." in buf
    cols = _valid_columns(buf, as_text, sensor_size)
    if cols is None:
        raise _first_error(buf, as_text, sensor_size)
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
    return EventBatch(ts, events.xs, events.ys, events.ps, t_ref, half, norm_dts)


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
        ts=batch.ts[mask],
        xs=batch.xs[mask] - lx0,
        ys=batch.ys[mask] - ly0,
        ps=batch.ps[mask],
        norm_dts=batch.norm_dts[mask],
        origin=(gx0, gy0),
        extent=(roi.w, roi.h),
    )
