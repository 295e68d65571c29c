"""Event parsing, batch construction and ROI filtering."""

import numpy as np
import pytest

from evcm.events import (
    EventParseError,
    EventValidationError,
    Roi,
    filter_roi,
    make_batch,
    parse_events,
)

from conftest import batch_from_arrays, parse_lines


def columns(events):
    return tuple(c.tolist() for c in (events.ts, events.xs, events.ys, events.ps))


class TestParseEvents:
    def test_seconds_timestamp_converted_to_microseconds(self):
        ev = parse_lines(["0.005000 120 90 1"])
        assert columns(ev) == ([5000], [120], [90], [1])

    def test_seconds_round_half_to_even(self):
        ev = parse_lines(["0.0000025 1 2 1", "3.5e-6 1 2 1", "0.0000005 1 2 1"])
        assert ev.ts.tolist() == [2, 4, 0]

    def test_integer_timestamp_and_zero_polarity(self):
        ev = parse_lines(["5000 120 90 0"])
        assert columns(ev) == ([5000], [120], [90], [-1])

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EventParseError) as exc:
            parse_lines(["abc 1 2 1"])
        assert exc.value.line_no == 1

    def test_comments_and_blank_lines_skipped(self):
        evs = parse_lines(["# header", "", "10 1 2 1", "   ", "20 3 4 0"])
        assert evs.ts.tolist() == [10, 20]
        # line numbers still count skipped lines
        with pytest.raises(EventParseError) as exc:
            parse_lines(["# header", "", "10 1 2"])
        assert exc.value.line_no == 3

    def test_wrong_field_count(self):
        with pytest.raises(EventParseError):
            parse_lines(["1 2 3"])

    def test_sensor_bounds_enforced(self):
        with pytest.raises(EventValidationError):
            parse_lines(["10 240 0 1"], sensor_size=(240, 180))
        with pytest.raises(EventValidationError):
            parse_lines(["10 0 180 1"], sensor_size=(240, 180))
        assert parse_lines(["10 239 179 1"], sensor_size=(240, 180))

    def test_negative_fields_rejected(self):
        with pytest.raises(EventValidationError):
            parse_lines(["10 -1 0 1"])

    def test_invalid_polarity_rejected(self):
        with pytest.raises(EventParseError):
            parse_lines(["10 1 2 3"])

    def test_polarity_minus_one_rejected(self):
        with pytest.raises(EventParseError) as exc:
            parse_lines(["10 1 2 1", "10 1 2 -1"])
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "line",
        [
            "99999999999999999999999 3 4 0",
            "10 9223372036854775808 4 0",
            "10 3 -9223372036854775809 0",
            "10 3 4 18446744073709551617",
            "1.0e300 3 4 0",
        ],
    )
    def test_field_beyond_int64_rejected(self, line):
        with pytest.raises(EventParseError) as exc:
            parse_lines(["# t x y p", "10 1 2 1", "", line, "20 1 2 1"])
        assert exc.value.line_no == 4

    def test_inline_comment_is_an_error(self):
        for line in ("1 2 3 1 # x", "1 2 3 1#", "1 2# 3 1"):
            with pytest.raises(EventParseError) as exc:
                parse_lines(["# ok", "  # ok", line])
            assert exc.value.line_no == 3

    def test_digit_separators_rejected(self):
        with pytest.raises(EventParseError):
            parse_lines(["1_000 1 2 1"])
        with pytest.raises(EventParseError):
            parse_lines(["1_000 1 2 1", "0.5 1 2 1"])

    def test_overlong_timestamp_rejected_next_to_seconds(self):
        # a long token is read whole, never cut into a valid number
        with pytest.raises(EventParseError) as exc:
            parse_lines(["0.5 1 2 1", "0" * 40 + "x 1 2 1"])
        assert exc.value.line_no == 2

    def test_timestamp_unit_is_the_files(self):
        # one "." puts every timestamp of the file in seconds, exponent
        # forms and bare integers included
        assert parse_lines(["0.0 1 2 1", "1e-05 3 4 0", "1 5 6 1"]).ts.tolist() == [
            0, 10, 1000000
        ]
        # a "." in a comment does not
        assert parse_lines(["# t [us] 0.5", "1 5 6 1"]).ts.tolist() == [1]
        with pytest.raises(EventParseError) as exc:
            parse_lines(["0 1 2 1", "1e-05 3 4 0"])
        assert exc.value.line_no == 2

    def test_first_bad_line_of_a_long_file(self):
        lines = [f"{t} {t % 240} {t % 180} {t % 2}" for t in range(5000)]
        lines[3171] = "3171 1 200 1"
        lines[4000] = "4000 1 2"
        with pytest.raises(EventValidationError) as exc:
            parse_lines(lines, sensor_size=(240, 180))
        assert exc.value.line_no == 3172
        with pytest.raises(EventParseError) as exc:
            parse_lines(lines)
        assert exc.value.line_no == 4001

    def test_line_breaks_per_source_kind(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_bytes(b"10 1 2 1\r\n\r\n20 3 4 0\r30 5 6 1\n")
        with pytest.raises(EventParseError) as exc:
            parse_events(path, (240, 180))  # only "\n" ends a line
        assert exc.value.line_no == 3
        path.write_bytes(b"10 1 2 1\r\n\r\n20 3 4 0\r\n")  # "\r" is whitespace
        assert parse_events(path, (240, 180)).ts.tolist() == [10, 20]

    def test_parse_from_file(self, tmp_path):
        p = tmp_path / "events.txt"
        p.write_text("10 1 2 1\n20 3 4 0\n", encoding="ascii")
        evs = parse_events(p, (240, 180))
        assert evs.ps.tolist() == [1, -1]


class TestEventArray:
    def test_slices_feed_make_batch(self):
        evs = parse_lines(["0 1 2 1", "100 3 4 0", "200 5 6 1", "300 7 8 0"])
        assert len(evs) == 4
        part = evs[1:3]
        assert len(part) == 2
        assert columns(part) == ([100, 200], [3, 5], [4, 6], [-1, 1])
        b = make_batch(part)
        assert b.t_ref == 150.0
        assert np.allclose(b.norm_dts, [-1.0, 1.0])

    def test_column_dtypes(self):
        evs = parse_lines(["0.5 1 2 1", "0.6 3 4 0"])
        assert [c.dtype for c in (evs.ts, evs.xs, evs.ys, evs.ps)] == [
            np.int64, np.int64, np.int64, np.int8
        ]
        assert evs.ts.tolist() == [500000, 600000]

    def test_no_per_event_access(self):
        evs = parse_lines(["0 1 2 1"])
        with pytest.raises(TypeError):
            evs[0]


class TestMakeBatch:
    def test_symmetric_batch(self):
        b = batch_from_arrays([0, 100, 200], [0, 1, 2], [0, 1, 2])
        assert b.t_ref == 100.0
        assert np.allclose(b.norm_dts, [-1.0, 0.0, 1.0])

    def test_single_event_degenerate_span(self):
        b = batch_from_arrays([500], [3], [4])
        assert b.t_ref == 500.0
        assert b.half_span_us == 0.0
        assert np.array_equal(b.norm_dts, [0.0])

    def test_asymmetric_batch(self):
        b = batch_from_arrays([0, 50, 200], [0, 0, 0], [0, 0, 0])
        assert b.t_ref == 100.0
        assert np.allclose(b.norm_dts, [-1.0, -0.5, 1.0])

    def test_norm_dts_span_and_monotone(self, rng):
        ts = np.sort(rng.integers(0, 10**6, size=200))
        ts[0], ts[-1] = 0, 10**6
        b = batch_from_arrays(ts, np.zeros(200), np.zeros(200))
        assert b.norm_dts.min() == -1.0
        assert b.norm_dts.max() == 1.0
        assert np.all(np.diff(b.norm_dts) >= 0)

    def test_translation_invariance(self):
        ts = [10, 60, 110, 400]
        a = batch_from_arrays(ts, [0] * 4, [0] * 4)
        shifted = batch_from_arrays([t + 10**7 for t in ts], [0] * 4, [0] * 4)
        assert np.array_equal(a.norm_dts, shifted.norm_dts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_batch(parse_lines([]))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            batch_from_arrays([10, 5], [0, 0], [0, 0])


class TestFilterRoi:
    def test_containment(self):
        b = batch_from_arrays([0, 1, 2], [10, 70, 200], [5, 5, 5])
        out = filter_roi(b, Roi(0, 0, 64, 64))
        assert len(out) == 1
        assert out.xs[0] == 10 and out.ys[0] == 5

    def test_full_sensor_identity(self):
        b = batch_from_arrays([0, 1, 2], [10, 70, 200], [5, 5, 5])
        out = filter_roi(b, Roi(0, 0, 240, 180))
        assert np.array_equal(out.xs, b.xs)
        assert np.array_equal(out.norm_dts, b.norm_dts)

    def test_all_outside_gives_empty(self):
        b = batch_from_arrays([0, 1], [200, 210], [100, 110])
        out = filter_roi(b, Roi(0, 0, 64, 64))
        assert len(out) == 0

    def test_rebase_to_roi_origin(self):
        b = batch_from_arrays([0, 1], [30, 40], [50, 60])
        out = filter_roi(b, Roi(20, 40, 64, 64))
        assert list(out.xs) == [10, 20]
        assert list(out.ys) == [10, 20]
        assert out.origin == (20, 40)

    def test_keeps_full_batch_normalization(self):
        b = batch_from_arrays([0, 100, 200], [10, 300, 10], [5, 5, 6])
        out = filter_roi(b, Roi(0, 0, 64, 64))
        assert out.t_ref == b.t_ref
        assert np.allclose(out.norm_dts, [-1.0, 1.0])

    def test_idempotent(self):
        b = batch_from_arrays([0, 1, 2], [10, 30, 70], [5, 50, 5])
        roi = Roi(5, 0, 32, 64)
        once = filter_roi(b, roi)
        twice = filter_roi(once, roi)
        assert len(once) == len(twice)
        assert np.array_equal(once.xs, twice.xs)
        assert np.array_equal(once.ys, twice.ys)

    def test_subpixel_origin_floored(self):
        b = batch_from_arrays([0, 1], [5, 4], [0, 0])
        out = filter_roi(b, Roi(4.7, 0.0, 2, 2))
        assert list(out.xs) == [1, 0]

    def test_roi_size_validated(self):
        with pytest.raises(ValueError):
            Roi(0, 0, 1, 64)
