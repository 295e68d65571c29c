"""The columnar parser against the line-by-line scalar oracle.

On generated events files both must return the same columns, or raise the
same exception type with the same line number. Each file's clean lines use
one timestamp unit, drawn per file. Numbers use the grammar the two share:
an optional sign and ASCII digits, and for timestamps in seconds a decimal
point or an exponent. Digit separators (``1_000``), which Python's ``int``
accepts, are rejected by the columnar parser.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evcm import events
from evcm.events import EventParseError, EventValidationError, parse_events

from conftest import WIDE_SENSOR
from oracles import parse_events_scalar

SENSOR = (240, 180)
SEPARATORS = [" ", " ", " ", "\t", "  ", " \t ", "\x0b", "\x1f"]
MARGINS = ["", "", "", " ", "\t", "  "]


@st.composite
def microseconds(draw):
    return str(draw(st.integers(0, 10**13)))


@st.composite
def seconds(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:  # an exact half microsecond, rounded to even
        return f"{draw(st.integers(0, 39))}.5e-6"
    if kind == 1:  # no "." of its own: seconds only by its file's other lines
        return draw(st.sampled_from(["0", "1", "12", "1e-05", "3E2"]))
    whole = draw(st.sampled_from(["", "0", "1", "12", "3600", "4294967"]))
    frac = draw(st.text("0123456789", min_size=0 if whole else 1, max_size=9))
    exp = draw(st.sampled_from(["", "", "", "e0", "e-3", "E2"]))
    return f"{whole}.{frac}{exp}"


@st.composite
def event_fields(draw, timestamps):
    t = draw(timestamps)
    x = draw(st.integers(0, SENSOR[0] - 1))
    y = draw(st.integers(0, SENSOR[1] - 1))
    p = draw(st.sampled_from([0, 1]))
    return [t, str(x), str(y), str(p)]


FAULTS = {
    "field count": lambda f, d: f[: d(st.integers(0, 3))] + ["7"] * d(st.integers(0, 2)),
    "non-numeric": lambda f, d: _replace(
        f, d, st.sampled_from(["abc", "1x", "--1", "1.2.3", "0x10", ".", "1e3", "+", "1\x002", "\xff7"])
    ),
    "negative": lambda f, d: _replace(f, d, st.sampled_from(["-1", "-5", "-0.5", "-2.5e1"]), 3),
    "polarity": lambda f, d: f[:3] + [d(st.sampled_from(["-1", "2", "-1", "10", "-9"]))],
    "sensor bounds": lambda f, d: _replace(
        f, d, st.sampled_from([str(SENSOR[0]), str(SENSOR[1]), "1000"]), 3, first=1
    ),
    "overflow": lambda f, d: _replace(
        f, d, st.sampled_from(["9" * 23, "-" + "9" * 20, str(2**63), str(2**63 - 1), str(-(2**63))])
    ),
    "seconds overflow": lambda f, d: _replace(
        f,
        d,
        st.sampled_from(
            ["1.0e300", "-1.0e300", "1.0e400", "9223372036854.775807", "-9223372036854.775808"]
        ),
        1,
    ),
    "inline #": lambda f, d: d(
        st.sampled_from([f + ["#", "x"], f[:3] + [f[3] + "#"], f[:2] + [f[2] + "#"] + f[3:], f + ["#"]])
    ),
}


def _replace(fields, draw, tokens, stop=4, first=0):
    """Replace one of fields[first:stop] with a drawn token."""
    out = list(fields)
    out[draw(st.integers(first, stop - 1))] = draw(tokens)
    return out


def _render(fields, draw):
    seps = [draw(st.sampled_from(SEPARATORS)) for _ in fields]
    body = "".join(f + s for f, s in zip(fields, seps))[: -len(seps[-1])] if fields else ""
    return draw(st.sampled_from(MARGINS)) + body + draw(st.sampled_from(MARGINS))


@st.composite
def clean_line(draw, timestamps):
    kind = draw(st.sampled_from(["event"] * 6 + ["comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(MARGINS)) + "#" + draw(st.text(" .#0123456789abc", max_size=12))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t "]))
    return _render(draw(event_fields(timestamps)), draw)


@st.composite
def source_lines(draw):
    """Clean lines in one timestamp unit with up to three injected faults at
    random positions."""
    timestamps = draw(st.sampled_from([microseconds(), seconds()]))
    lines = draw(st.lists(clean_line(timestamps), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        fault = FAULTS[draw(st.sampled_from(sorted(FAULTS)))]
        fields = fault(draw(event_fields(timestamps)), draw)
        lines.insert(draw(st.integers(0, len(lines))), _render(fields, draw))
    return lines


def outcome(parse, source, sensor_size):
    try:
        cols = parse(source, sensor_size=sensor_size)
    except (EventParseError, EventValidationError) as exc:
        return type(exc).__name__, exc.line_no
    if isinstance(cols, tuple):  # the oracle's lists
        return "ok", cols
    return "ok", tuple(c.tolist() for c in (cols.ts, cols.xs, cols.ys, cols.ps))


def outcomes(data: bytes, sensor_size):
    """The parser's and the oracle's outcome on a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        path.write_bytes(data)
        parsers = (parse_events, parse_events_scalar)
        return tuple(outcome(parse, path, sensor_size) for parse in parsers)


@settings(max_examples=500, deadline=None)
@given(
    lines=source_lines(),
    eols=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=25, max_size=25),
    sensor_size=st.sampled_from([WIDE_SENSOR, SENSOR]),
)
def test_columnar_parser_matches_scalar_oracle(lines, eols, sensor_size):
    data = "".join(ln + eol for ln, eol in zip(lines, eols)).encode("latin-1")
    got, expected = outcomes(data, sensor_size)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    lines=source_lines(),
    eols=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=25, max_size=25),
    final_eol=st.booleans(),
    block=st.integers(1, 48),
    sensor_size=st.sampled_from([WIDE_SENSOR, SENSOR]),
)
def test_block_parser_matches_scalar_oracle(lines, eols, final_eol, block, sensor_size):
    """The files above, with or without a last line break, read in blocks of
    a few dozen bytes: nearly every file spans many blocks, and some of its
    lines are longer than a block."""
    ends = eols[: len(lines)]
    if lines and not final_eol:
        ends[-1] = ""
    data = "".join(ln + end for ln, end in zip(lines, ends)).encode("latin-1")
    with mock.patch.object(events, "_BLOCK_BYTES", block):
        got, expected = outcomes(data, sensor_size)
    assert got == expected


def _lines(n, unit=lambda i: str(10 * i)):
    return "".join(f"{unit(i)} {i % 240} {i % 180} {i % 2}\n" for i in range(n)).encode()


BLOCK_CASES = {
    "an unterminated last line after a comment": b"#\n0 0 0 0\n7\r",
    "comments and CRLF": b"# t x y p\r\n10 1 2 1\r\n  # 0.5 s\r\n\r\n20 3 4 0\r\n" * 3,
    "a lone CR": b"10 1 2 1\r20 3 4 0\n30 5 6 1\n" + _lines(8),
    "NUL": _lines(8) + b"90 1\x002 1\n" + _lines(4),
    "non-ASCII": _lines(8) + b"\xff90 1 2 1\n" + _lines(4),
    "a line longer than a block": _lines(3) + b" " * 60 + b"40 1  2 1" + b"\t" * 60 + b"\n" + _lines(3),
    "a bad line in the last block": _lines(30) + b"300 240 2 1\n",
    "a bad line after a long one": b"1 2 3 1" + b" " * 70 + b"\n" + _lines(6) + b"70 1 2 3\n",
    "no last line break": _lines(30) + b"300 5 6 1",
    "no last line break, bad": _lines(30) + b"300 5 6",
    "seconds by the last block alone": _lines(30, str) + b"30.5 3 4 0\n",
    "a '.' only in a comment of the last block": _lines(30) + b"# 0.5 s\n",
}


def test_every_block_size_matches_scalar_oracle():
    for name, data in BLOCK_CASES.items():
        expected = outcomes(data, SENSOR)[1]
        for block in range(1, 49):
            with mock.patch.object(events, "_BLOCK_BYTES", block):
                assert outcomes(data, SENSOR)[0] == expected, (name, block)


def test_files_of_a_block_and_a_byte_either_side_match_scalar_oracle():
    # a file a byte shorter than a block, as long as one and a byte longer:
    # reads sized to what the file still holds cut the blocks reads of a
    # whole block would
    for name, data in BLOCK_CASES.items():
        expected = outcomes(data, SENSOR)[1]
        for block in (len(data) - 1, len(data), len(data) + 1):
            with mock.patch.object(events, "_BLOCK_BYTES", block):
                assert outcomes(data, SENSOR)[0] == expected, (name, block)



def test_every_count_slice_matches_scalar_oracle():
    # pass 1 counts each block's line breaks over slices; counts summed over
    # slices of any size, a block's or shorter, number the lines and size
    # the columns as a whole-block count does
    for name, data in BLOCK_CASES.items():
        expected = outcomes(data, SENSOR)[1]
        for block in (48, len(data) + 1):
            for count in (1, 2, 3, 7, block):
                with mock.patch.object(events, "_BLOCK_BYTES", block), \
                        mock.patch.object(events, "_COUNT_BYTES", count):
                    assert outcomes(data, SENSOR)[0] == expected, (name, block, count)

TOKENS = [
    "0", "7", "+7", "007", "0.5", ".5", "5.", "2.5e-6", "1.5E3", "-0.0",
    "abc", "1x", "--1", "1.2.3", "0x10", ".", "1e3", "+", "1\x002", "\xff7", "#",
    "-1", "-5", "-0.5", "-2.5e1", "2", "10", "239", "240", "179", "180", "1000",
    "9" * 23, "-" + "9" * 20, str(2**63), str(2**63 - 1), str(-(2**63)),
    "1.0e300", "-1.0e300", "1.0e400", "9223372036854.775807", "-9223372036854.775808",
]


def test_every_token_in_every_field_matches_scalar_oracle():
    for field in range(4):
        for token in TOKENS:
            fields = ["1000", "5", "6", "1"]
            fields[field] = token
            lines = ["# t x y p", "10 1 2 1", " ".join(fields), "20 3 4 0"]
            data = "\n".join(lines).encode("latin-1")
            for sensor_size in (WIDE_SENSOR, SENSOR):
                got, expected = outcomes(data, sensor_size)
                assert got == expected, (fields, sensor_size)


def test_oracle_and_parser_agree_on_generated_file(tmp_path):
    rng = np.random.default_rng(5)
    n = 20_000
    ts = np.sort(rng.integers(0, 10**9, n))
    xs, ys, ps = rng.integers(0, 240, n), rng.integers(0, 180, n), rng.integers(0, 2, n)
    rows = list(zip(ts.tolist(), xs.tolist(), ys.tolist(), ps.tolist()))
    path = tmp_path / "events.txt"
    for unit, t_text in (("us", str), ("s", lambda t: f"{t / 1e6:.6f}")):
        lines = [f"{t_text(t)} {x} {y} {p}" for t, x, y, p in rows]
        path.write_text(f"# t [{unit}] x y p\n" + "\n".join(lines) + "\n", encoding="ascii")
        got = outcome(parse_events, path, SENSOR)
        assert got == outcome(parse_events_scalar, path, SENSOR)
        assert got[0] == "ok" and got[1][0] == ts.tolist(), unit
