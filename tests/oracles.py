"""Scalar reference twins of the columnar code, kept as test oracles."""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator

from evcm.events import EventParseError, EventValidationError

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from (ln.decode("ascii", errors="replace") for ln in fh)
        return
    if isinstance(source, bytes):
        yield from io.BytesIO(source).read().decode("ascii", errors="replace").splitlines()
        return
    for ln in source:
        yield ln.decode("ascii", errors="replace") if isinstance(ln, bytes) else ln


def parse_events_scalar(source, sensor_size=None):
    """Line-by-line ``t x y p`` parser: (ts, xs, ys, ps) lists, ps in -1/+1.

    Values beyond int64 are parse errors, and polarity must be 0 or 1.
    """
    cols = ([], [], [], [])
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise EventParseError(line_no, f"expected 4 fields, got {len(parts)}")
        t_tok, x_tok, y_tok, p_tok = parts
        try:
            t = int(round(float(t_tok) * 1e6)) if "." in t_tok else int(t_tok)
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
        if sensor_size is not None:
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
