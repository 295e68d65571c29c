"""Bilinear voting, naive accumulation and the banked hardware emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcm.voting import (
    ROLES,
    BankedAccumulator,
    IweScatter,
    NaiveAccumulator,
    VotingConfigError,
    _image,
    write_pgm,
)
from evcm.warp import Velocity, WarpedBatch, warp_batch

from conftest import accumulate_images, random_interior_batch, scatter_iwe
from oracles import (
    BankedDatapathOracle, WarpedEvent, bilinear_votes, gather_scalar, warped_events,
)


def wbatch(xs, ys, dts) -> WarpedBatch:
    return WarpedBatch(
        xs=np.asarray(xs, dtype=np.float64),
        ys=np.asarray(ys, dtype=np.float64),
        dts=np.asarray(dts, dtype=np.float64),
    )


def random_warped(rng, n, grid=(16, 16), concentrated=False) -> WarpedBatch:
    w, h = grid
    if concentrated:
        # >= 50% of consecutive events hit identical pixel cells
        base_x = rng.uniform(1, w - 2)
        base_y = rng.uniform(1, h - 2)
        xs = np.where(rng.random(n) < 0.7, base_x, rng.uniform(0, w - 1, n))
        ys = np.where(rng.random(n) < 0.7, base_y, rng.uniform(0, h - 1, n))
    else:
        xs = rng.uniform(-1.5, w + 0.5, n)  # includes out-of-bounds stencils
        ys = rng.uniform(-1.5, h + 0.5, n)
    return wbatch(xs, ys, rng.uniform(-1, 1, n))


class TestBilinearVotes:
    def test_on_grid_event_single_weight(self):
        votes = bilinear_votes(WarpedEvent(5.0, 7.0, 0.3), (16, 16))
        weights = {v.pixel: v.w for v in votes}
        assert weights[(5, 7)] == 1.0
        assert all(w == 0.0 for p, w in weights.items() if p != (5, 7))

    def test_center_case_equal_quarters(self):
        votes = bilinear_votes(WarpedEvent(5.5, 7.5, 0.0), (16, 16))
        assert {v.pixel for v in votes} == {(5, 7), (6, 7), (5, 8), (6, 8)}
        assert all(v.w == 0.25 for v in votes)

    def test_weights_and_derivatives_worked_example(self):
        votes = bilinear_votes(WarpedEvent(5.25, 7.5, 1.0), (16, 16))
        by_pixel = {v.pixel: v for v in votes}
        order = [(5, 7), (6, 7), (5, 8), (6, 8)]
        assert [by_pixel[p].w for p in order] == [0.375, 0.125, 0.375, 0.125]
        assert [by_pixel[p].dwx for p in order] == [0.5, -0.5, 0.5, -0.5]

    def test_out_of_bounds_pixels_dropped(self):
        votes = bilinear_votes(WarpedEvent(-0.5, 3.0, 0.0), (16, 16))
        by_pixel = {v.pixel: v.w for v in votes}
        assert set(by_pixel) == {(0, 3), (0, 4)}  # the i=-1 column is dropped
        assert by_pixel[(0, 3)] == 0.5

    @given(
        x=st.floats(1.0, 14.0),
        y=st.floats(1.0, 14.0),
        dt=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity_and_derivative_cancellation(self, x, y, dt):
        votes = bilinear_votes(WarpedEvent(x, y, dt), (16, 16))
        assert len(votes) == 4
        assert sum(v.w for v in votes) == pytest.approx(1.0, abs=1e-12)
        assert sum(v.dwx for v in votes) == pytest.approx(0.0, abs=1e-12)
        assert sum(v.dwy for v in votes) == pytest.approx(0.0, abs=1e-12)


class TestNaiveAccumulator:
    def test_empty_input(self):
        imgs = accumulate_images(wbatch([], [], []), (8, 8))
        assert imgs.iwe.shape == (8, 8)
        assert not imgs.iwe.any()
        assert imgs.in_bounds_mass == 0.0
        # bincount of no votes counts in ints; every voter's image is float
        grid = scatter_iwe(wbatch([], [], []), (8, 8))
        assert imgs.iwe.dtype == imgs.d_vx.dtype == grid.iwe.dtype == np.float64

    def test_interior_events_mass_equals_count(self, rng):
        n = 500
        w = wbatch(
            rng.uniform(1, 14, n), rng.uniform(1, 14, n), rng.uniform(-1, 1, n)
        )
        imgs = accumulate_images(w, (16, 16))
        assert imgs.in_bounds_mass == pytest.approx(n, rel=1e-12)
        assert imgs.iwe.sum() == pytest.approx(n, rel=1e-12)

    def test_single_event_derivative_rows_cancel(self):
        imgs = accumulate_images(wbatch([5.5], [7.5], [1.0]), (16, 16))
        assert np.count_nonzero(imgs.iwe) == 4
        assert np.all(imgs.iwe[imgs.iwe != 0] == 0.25)
        assert imgs.d_vx.sum() == pytest.approx(0.0, abs=1e-12)
        assert imgs.d_vy.sum() == pytest.approx(0.0, abs=1e-12)

    def test_tiny_grid_rejected(self):
        with pytest.raises(VotingConfigError):
            NaiveAccumulator((1, 8))
        with pytest.raises(VotingConfigError):
            IweScatter(10, (8, 1))


class TestClearOnRead:
    @pytest.mark.parametrize("cls", [NaiveAccumulator, BankedAccumulator])
    def test_second_read_is_zero(self, cls, rng):
        acc = cls((8, 8))
        acc.accumulate(random_warped(rng, 40, (8, 8)))
        first = acc.read_and_clear()
        assert first.iwe.any()
        second = acc.read_and_clear()
        assert not second.iwe.any()
        assert not second.d_vx.any()
        assert not second.d_vy.any()

    @pytest.mark.parametrize("cls", [NaiveAccumulator, BankedAccumulator])
    def test_iterations_isolated(self, cls, rng):
        a = random_warped(rng, 30, (8, 8))
        b = random_warped(rng, 30, (8, 8))
        acc = cls((8, 8))
        acc.accumulate(a)
        acc.read_and_clear()
        acc.accumulate(b)
        assert np.array_equal(acc.read_and_clear().iwe, accumulate_images(b, (8, 8)).iwe)

    @pytest.mark.parametrize("cls", [NaiveAccumulator, BankedAccumulator])
    def test_fresh_accumulator_reads_zero(self, cls):
        assert not cls((8, 8)).read_and_clear().iwe.any()


def assert_imagesets_identical(a, b):
    assert np.array_equal(a.iwe, b.iwe)
    assert np.array_equal(a.d_vx, b.d_vx)
    assert np.array_equal(a.d_vy, b.d_vy)


class TestBankedEquivalence:
    def test_three_same_pixel_events(self):
        w = wbatch([4.25, 4.25, 4.25], [4.25, 4.25, 4.25], [0.5, 0.5, 0.5])
        banked = accumulate_images(w, (8, 8), BankedAccumulator)
        naive = accumulate_images(w, (8, 8))
        assert_imagesets_identical(banked, naive)
        assert banked.iwe[4, 4] == 3 * 0.75 * 0.75

    def test_forwarding_disabled_loses_updates(self):
        w = wbatch([4.25] * 3, [4.25] * 3, [0.5] * 3)
        broken = accumulate_images(w, (8, 8), BankedDatapathOracle, forwarding=False)
        naive = accumulate_images(w, (8, 8))
        assert not np.array_equal(broken.iwe, naive.iwe)

    def test_bank_occupancy_one_per_parity(self):
        # four on-grid events, one per coordinate parity class
        w = wbatch([2.0, 3.0, 2.0, 3.0], [2.0, 2.0, 3.0, 3.0], [0.0] * 4)
        acc = BankedAccumulator((8, 8))
        acc.accumulate(w)
        assert acc.bank_occupancy("iwe") == (1, 1, 1, 1)

    def test_odd_grid_rejected(self):
        with pytest.raises(VotingConfigError):
            BankedAccumulator((7, 8))

    @pytest.mark.parametrize("counter", ["bank_occupancy", "forwarding_hits"])
    def test_unknown_role_rejected(self, counter):
        acc = BankedAccumulator((8, 8))
        with pytest.raises(ValueError, match=r"'bogus'.*\('iwe', 'd_vx', 'd_vy'\)"):
            getattr(acc, counter)("bogus")

    def test_counters_run_on_across_readouts(self):
        # the pipelines drain on read, so the second pass's first updates
        # hit nothing carried over from the first
        w = wbatch([4.25] * 3, [4.25] * 3, [0.5] * 3)
        acc = BankedAccumulator((8, 8))
        acc.accumulate(w)
        assert acc.bank_occupancy("iwe") == (3, 3, 3, 3)
        assert acc.forwarding_hits("iwe") == (2, 2, 2, 2)
        acc.read_and_clear()
        acc.accumulate(w)
        acc.read_and_clear()
        assert acc.bank_occupancy("iwe") == (6, 6, 6, 6)
        assert acc.forwarding_hits("iwe") == (4, 4, 4, 4)
        assert acc.bank_occupancy("d_vx") == (6, 6, 6, 6)

    def test_randomized_streams_bit_identical(self, rng):
        for trial in range(300):
            concentrated = trial % 2 == 1
            w = random_warped(
                rng, int(rng.integers(1, 50)), (8, 8), concentrated=concentrated
            )
            assert_imagesets_identical(
                accumulate_images(w, (8, 8), BankedAccumulator),
                accumulate_images(w, (8, 8)),
            )


ORACLE_GRID = (8, 6)

# a coordinate: sub-pixel, whole-pixel (zero-weight corners, never issued),
# or far off and NaN (nothing issued)
_coordinate = st.one_of(
    st.floats(-1.5, 8.5),
    st.integers(-2, 9).map(float),
    st.sampled_from([1e6, -1e6, 1e300, -1e300, float("nan")]),
)
# an event repeated 1-8 times in a row: the repeats hammer one address
_run = st.tuples(
    st.tuples(_coordinate, _coordinate, st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
    st.integers(1, 8),
)


class TestDatapathOracle:
    """The whole-array banked model against the per-update loop with
    forwarding, ``tests/oracles.py::BankedDatapathOracle``."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_images_and_counters_match_per_update_loop(self, data):
        runs = data.draw(st.lists(_run, max_size=30))
        events = np.array([e for e, k in runs for _ in range(k)]).reshape(-1, 3)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=3)))
        # after each piece: read out (pipelines drained) or carry on
        reads = data.draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
        acc = BankedAccumulator(ORACLE_GRID)
        oracle = BankedDatapathOracle(ORACLE_GRID)
        bounds = [0, *cuts, len(events)]
        for s, e, read in zip(bounds, bounds[1:], [*reads, True]):
            piece = wbatch(*events[s:e].T)
            acc.accumulate(piece)
            oracle.accumulate(piece)
            if read:
                assert_imagesets_identical(acc.read_and_clear(), oracle.read_and_clear())
            for role in ROLES:
                assert acc.bank_occupancy(role) == oracle.bank_occupancy(role)
                assert acc.forwarding_hits(role) == oracle.forwarding_hits(role)

    def test_counters_over_long_stream_match_per_update_loop(self, rng):
        # about three paper-point ROI batches in one call; about half the
        # events hammer one address, so hits are frequent
        grid = (16, 12)
        warped = random_warped(rng, 2348, grid, concentrated=True)
        acc = BankedAccumulator(grid)
        oracle = BankedDatapathOracle(grid)
        acc.accumulate(warped)
        oracle.accumulate(warped)
        for role in ROLES:
            assert acc.bank_occupancy(role) == oracle.bank_occupancy(role)
            assert acc.forwarding_hits(role) == oracle.forwarding_hits(role)
        assert sum(acc.forwarding_hits("iwe")) > 0

    def test_counter_reads_vote_an_open_window_once(self, rng, readouts):
        # the six counter reads of one window state vote it once; an
        # accumulate or a readout changes the state, and the next read votes
        # the new window
        grid = (16, 12)
        acc = BankedAccumulator(grid)
        oracle = BankedDatapathOracle(grid)
        for step in ("accumulate", "accumulate", "read", "accumulate"):
            if step == "read":
                assert_imagesets_identical(acc.read_and_clear(), oracle.read_and_clear())
            else:
                warped = random_warped(rng, 300, grid, concentrated=True)
                acc.accumulate(warped)
                oracle.accumulate(warped)
            start = readouts()
            for role in ROLES:
                assert acc.bank_occupancy(role) == oracle.bank_occupancy(role)
                assert acc.forwarding_hits(role) == oracle.forwarding_hits(role)
            assert readouts() - start == 1


def scalar_oracle(warped: WarpedBatch, shape) -> tuple[np.ndarray, ...]:
    """Per-event reference: ``bilinear_votes`` summed pixel by pixel in
    (event, corner) order with Python floats."""
    w, h = shape
    grids = [[[0.0] * w for _ in range(h)] for _ in range(3)]
    for we in warped_events(warped):
        for v in bilinear_votes(we, shape):
            i, j = v.pixel
            grids[0][j][i] += v.w
            grids[1][j][i] += v.dwx
            grids[2][j][i] += v.dwy
    return tuple(np.array(g) for g in grids)


def edge_stream(rng, n, grid) -> WarpedBatch:
    """Stencils straddling every edge, whole-pixel coordinates, far-off
    coordinates and runs of repeats, shuffled through one stream."""
    w, h = grid
    xs = rng.uniform(-1.5, w + 0.5, n)
    ys = rng.uniform(-1.5, h + 0.5, n)
    kind = rng.integers(0, 6, n)
    whole = kind == 1
    xs[whole] = rng.integers(-1, w + 1, whole.sum())
    ys[whole] = rng.integers(-1, h + 1, whole.sum())
    far = kind == 2
    far_values = np.array([1e6, -1e6, 1e300, -1e300])
    axis = rng.random(far.sum()) < 0.5
    xs[far] = np.where(axis, rng.choice(far_values, far.sum()), xs[far])
    ys[far] = np.where(axis, ys[far], rng.choice(far_values, far.sum()))
    repeat = np.flatnonzero(kind == 3)
    xs[repeat] = xs[repeat - 1]
    ys[repeat] = ys[repeat - 1]
    return wbatch(xs, ys, rng.uniform(-1, 1, n))


class TestLongStreams:
    """Streams longer than a paper-point ROI batch (about 800 events), each
    voted in one call, and one stream cut into two calls."""

    GRID = (16, 12)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 3079])
    def test_naive_banked_and_scalar_oracle_bit_identical(self, rng, n):
        warped = edge_stream(rng, n, self.GRID)
        naive = accumulate_images(warped, self.GRID)
        banked = accumulate_images(warped, self.GRID, BankedAccumulator)
        assert_imagesets_identical(banked, naive)
        iwe, dvx, dvy = scalar_oracle(warped, self.GRID)
        assert np.array_equal(naive.iwe, iwe)
        assert np.array_equal(scatter_iwe(warped, self.GRID).iwe, iwe)
        assert np.array_equal(naive.d_vx, dvx)
        assert np.array_equal(naive.d_vy, dvy)

    def test_far_off_and_non_finite_coordinates_vote_nothing(self):
        bad = [1e6, -1e6, 1e300, -1e300, np.nan, np.inf, -np.inf]
        k = len(bad)
        xs = bad + [5.5] * k + bad
        ys = [5.5] * k + bad + bad
        with np.errstate(invalid="ignore"):  # inf - floor(inf) is nan
            imgs = accumulate_images(wbatch(xs, ys, [0.5] * 3 * k), self.GRID)
            grid = scatter_iwe(wbatch(xs, ys, [0.5] * 3 * k), self.GRID)
        assert not imgs.iwe.any() and not imgs.d_vx.any() and not imgs.d_vy.any()
        assert imgs.in_bounds_mass == 0.0
        assert not grid.iwe.any() and grid.in_bounds_mass == 0.0

    @pytest.mark.parametrize("cls", [NaiveAccumulator, BankedAccumulator])
    def test_split_calls_match_one_call(self, cls, rng):
        warped = edge_stream(rng, 2348, self.GRID)
        cut = 1541
        split = cls(self.GRID)
        split.accumulate(wbatch(warped.xs[:cut], warped.ys[:cut], warped.dts[:cut]))
        split.accumulate(wbatch(warped.xs[cut:], warped.ys[cut:], warped.dts[cut:]))
        whole = cls(self.GRID)
        whole.accumulate(warped)
        a, b = split.read_and_clear(), whole.read_and_clear()
        assert_imagesets_identical(a, b)
        assert a.in_bounds_mass == b.in_bounds_mass
        if cls is BankedAccumulator:
            # one readout window: the updates in flight span the cut
            for role in ROLES:
                assert split.bank_occupancy(role) == whole.bank_occupancy(role)
                assert split.forwarding_hits(role) == whole.forwarding_hits(role)


class TestGather:
    """``IweScatter.gather`` of any image against the scalar oracle's sum of
    image[pixel]·∂w/∂v over the in-grid votes."""

    @staticmethod
    def oracle(warped, image, shape):
        """``gather_scalar``, and per axis the sum of |image[pixel]·∂w/∂v|
        over the in-grid votes, the scale of the rounding allowed."""
        votes = [v for we in warped_events(warped) for v in bilinear_votes(we, shape)]
        sizes = [sum(abs(float(image[v.pixel[1], v.pixel[0]]) * (v.dwx, v.dwy)[axis])
                     for v in votes) for axis in (0, 1)]
        return gather_scalar(warped, image, shape), sizes

    def assert_matches_oracle(self, warped, image, shape):
        grid = scatter_iwe(warped, shape)
        iwe = grid.iwe.copy()
        got = grid.gather(image)
        want, sizes = self.oracle(warped, image, shape)
        for axis, (g, o, size) in enumerate(zip(got, want, sizes)):
            assert abs(g - o) <= 1e-12 * size, (axis, g, o, size)
        assert np.array_equal(grid.iwe, iwe)  # the gather leaves the IWE be

    def assert_transpose_of_gather(self, warped, image, shape):
        """Σ_p image[p]·D[p], D being the images of ``derivative_votes``,
        matches ``gather(image)`` and the scalar oracle."""
        grid = scatter_iwe(warped, shape)
        dotted = [float(np.sum(image * _image(grid._index, votes, shape)))
                  for votes in grid.derivative_votes()]
        want, sizes = self.oracle(warped, image, shape)
        for axis, (d, g, o, size) in enumerate(zip(dotted, grid.gather(image), want, sizes)):
            assert abs(d - g) <= 1e-12 * size, (axis, d, g, size)
            assert abs(d - o) <= 1e-12 * size, (axis, d, o, size)

    @staticmethod
    def random_case(rng):
        """A random batch warped at a random velocity, and a signed image."""
        shape = (int(rng.integers(2, 40)), int(rng.integers(2, 40)))
        batch = random_interior_batch(rng, int(rng.integers(1, 300)), shape, margin=0)
        v = Velocity(*rng.uniform(-0.6, 0.6, 2) * shape)
        image = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 5), shape[::-1])
        return warp_batch(batch, v), image, shape

    def test_random_batches_at_random_velocities(self, rng):
        for _ in range(40):
            self.assert_matches_oracle(*self.random_case(rng))

    @pytest.mark.parametrize("n", [1, 17, 1025])
    def test_stencils_off_the_grid(self, rng, n):
        shape = (16, 12)
        image = rng.normal(0.5, 2.0, shape[::-1])
        self.assert_matches_oracle(edge_stream(rng, n, shape), image, shape)

    def test_derivative_votes_transpose_gather_on_random_batches(self, rng):
        for _ in range(40):
            self.assert_transpose_of_gather(*self.random_case(rng))

    @pytest.mark.parametrize("n", [1, 17, 1025])
    def test_derivative_votes_transpose_gather_off_the_grid(self, rng, n):
        shape = (16, 12)
        image = rng.normal(-0.5, 2.0, shape[::-1])
        self.assert_transpose_of_gather(edge_stream(rng, n, shape), image, shape)

    def test_zero_image_gathers_zero(self, rng):
        shape = (16, 12)
        grid = scatter_iwe(edge_stream(rng, 500, shape), shape)
        assert grid.gather(np.zeros(shape[::-1])) == (0.0, 0.0)


class TestPgmExport:
    def test_header_scale_and_dimensions(self, tmp_path):
        grid = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "img.pgm"
        write_pgm(grid, path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "P2"
        assert lines[1].startswith("# scale ")
        assert lines[2] == "2 2"
        assert lines[3] == "65535"
        assert lines[5].split() == ["32768", "65535"]

    def test_imageset_write(self, tmp_path, rng):
        imgs = accumulate_images(random_warped(rng, 30, (8, 8)), (8, 8))
        write_pgm(imgs.iwe, tmp_path / "iwe.pgm")
        assert (tmp_path / "iwe.pgm").read_text(encoding="ascii").startswith("P2")
