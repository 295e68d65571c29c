"""Bilinear voting, naive accumulation and the banked hardware emulation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcm.datapath import ROLES, BankedAccumulator, ImageSet, NaiveAccumulator
from evcm.objective import evaluate
from evcm.voting import PAD, IweScatter, VotingConfigError, write_pgm
from evcm.warp import Velocity, WarpedBatch, warp_batch

from conftest import accumulate_images, random_interior_batch, scatter_iwe
from oracles import (
    BankedDatapathOracle, WarpedEvent, bilinear_votes, gather_scalar, votes_image_scalar,
    warped_events,
)


def wbatch(xs, ys, dts) -> WarpedBatch:
    return WarpedBatch(np.array((xs, ys), dtype=np.float64),
                       np.asarray(dts, dtype=np.float64))


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
        acc.read_and_clear()
        assert acc.bank_occupancy("iwe") == (1, 1, 1, 1)

    def test_empty_streams_count_nothing(self):
        # fresh, after an empty readout, and over a window whose every event
        # is off the grid or non-finite: no bank of any role is issued to
        bad = [1e6, -1e6, 1e300, -1e300, np.nan, np.inf, -np.inf, -1.5, 8.0]
        fresh, emptied, off = (BankedAccumulator((8, 8)) for _ in range(3))
        emptied.read_and_clear()
        off.accumulate(wbatch(bad, bad[::-1], [0.5] * len(bad)))
        with np.errstate(invalid="ignore"):  # inf - floor(inf) is nan
            images = off.read_and_clear()
        assert not images.iwe.any()
        for acc in (fresh, emptied, off):
            for role in ROLES:
                assert acc.bank_occupancy(role) == (0, 0, 0, 0)
                assert acc.forwarding_hits(role) == (0, 0, 0, 0)

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
        acc.read_and_clear()
        assert acc.bank_occupancy("iwe") == (3, 3, 3, 3)
        assert acc.forwarding_hits("iwe") == (2, 2, 2, 2)
        acc.accumulate(w)
        acc.read_and_clear()
        assert acc.bank_occupancy("iwe") == (6, 6, 6, 6)
        assert acc.forwarding_hits("iwe") == (4, 4, 4, 4)
        assert acc.bank_occupancy("d_vx") == (6, 6, 6, 6)

    def test_banked_runs_with_the_reference_patched(self, monkeypatch):
        # the benchmark's traced run wraps accumulate and read_and_clear on
        # each class with setattr, one span per class: were BankedAccumulator
        # a NaiveAccumulator, its calls would run the reference's wrappers
        # too and count in both classes' spans
        def refuse(*args, **kwargs):
            raise AssertionError("a NaiveAccumulator method ran")

        monkeypatch.setattr(NaiveAccumulator, "accumulate", refuse)
        monkeypatch.setattr(NaiveAccumulator, "read_and_clear", refuse)
        acc = BankedAccumulator((8, 8))
        acc.accumulate(wbatch([4.25] * 3, [4.25] * 3, [0.5] * 3))
        assert acc.read_and_clear().iwe[4, 4] == 3 * 0.75 * 0.75
        assert acc.bank_occupancy("iwe") == (3, 3, 3, 3)
        assert acc.forwarding_hits("iwe") == (2, 2, 2, 2)

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


class TestRoutingTables:
    """The banks' routing tables against the rule in ``BankedAccumulator``'s
    docstring, at every anchor a clamped stencil floor can have."""

    @pytest.mark.parametrize("grid", [(2, 2), (8, 6), (64, 64)])
    def test_every_anchor_routes_by_the_parity_rule(self, grid):
        w, h = grid
        routes = BankedAccumulator(grid)._routes
        pw, ph = w + 2 * PAD, h + 2 * PAD
        offsets = (0, 1, pw, pw + 1)  # corner c = cx + 2 * cy, as padded offsets
        for j in range(-PAD, h + 1):  # the floors are clamped to [-PAD, w] x [-PAD, h]
            for i in range(-PAD, w + 1):
                anchor = (j + PAD) * pw + i + PAD
                q = (i & 1) + 2 * (j & 1)
                for b in range(4):
                    for r in range(len(ROLES)):
                        tag = int(routes.tag[b, anchor] + routes.roles[r, 0, 0])
                        key, pixel = divmod(tag, pw * ph)
                        assert key == r * 4 + b
                    pj, pi = divmod(pixel, pw)
                    pi, pj = pi - PAD, pj - PAD
                    # the pixel has parity b, lies in the anchor's 2x2
                    # stencil and is its corner b XOR q
                    assert (pi & 1) + 2 * (pj & 1) == b
                    assert (pi - i, pj - j) in ((0, 0), (1, 0), (0, 1), (1, 1))
                    assert pixel == anchor + offsets[b ^ q]
                    on_grid = 0 <= pi < w and 0 <= pj < h
                    want = b ^ q if on_grid else routes.OFF
                    assert routes.corner[b, anchor] == want, (i, j, b)


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
        assert_imagesets_identical(acc.read_and_clear(), oracle.read_and_clear())
        for role in ROLES:
            assert acc.bank_occupancy(role) == oracle.bank_occupancy(role)
            assert acc.forwarding_hits(role) == oracle.forwarding_hits(role)
        assert sum(acc.forwarding_hits("iwe")) > 0

    def test_counter_reads_vote_nothing(self, rng, readouts):
        # a window is voted once, at its readout: the six counter reads vote
        # nothing, with a window open or none, and an open window counts
        # nothing until it is read out
        grid = (16, 12)
        acc = BankedAccumulator(grid)

        def counters():
            start = readouts()
            read = [(acc.bank_occupancy(r), acc.forwarding_hits(r)) for r in ROLES]
            assert readouts() == start
            return read

        for _ in range(2):
            before = counters()
            acc.accumulate(random_warped(rng, 300, grid, concentrated=True))
            assert counters() == before
            acc.read_and_clear()
            assert counters() != before


class TestKeptBuffers:
    """One accumulator keeps its scatter and vote buffers while the windows'
    event count repeats, and remakes them when it changes: every readout is
    a fresh accumulator's, and the counters follow the per-update loop."""

    @pytest.mark.parametrize("grid", [(64, 64), (8, 6)])
    def test_windows_of_changing_sizes_match_fresh_accumulators(self, rng, grid):
        n, m = 301, 187
        # (events, where the window is cut into two accumulate calls)
        windows = [(n, None), (n, 120), (m, None), (0, None), (n, 1)]
        acc = BankedAccumulator(grid)
        oracle = BankedDatapathOracle(grid)
        earlier = []  # each readout's ImageSet, with a copy of its images
        for size, cut in windows:
            warped = edge_stream(rng, size, grid)
            bounds = [0, size] if cut is None else [0, cut, size]
            pieces = [wbatch(warped.xs[s:e], warped.ys[s:e], warped.dts[s:e])
                      for s, e in zip(bounds, bounds[1:])]
            fresh = BankedAccumulator(grid)
            for piece in pieces:
                acc.accumulate(piece)
                fresh.accumulate(piece)
                oracle.accumulate(piece)
            got, want = acc.read_and_clear(), fresh.read_and_clear()
            assert_imagesets_identical(got, want)
            assert got.in_bounds_mass == want.in_bounds_mass
            assert_imagesets_identical(got, oracle.read_and_clear())
            for role in ROLES:
                assert acc.bank_occupancy(role) == oracle.bank_occupancy(role)
                assert acc.forwarding_hits(role) == oracle.forwarding_hits(role)
            # the kept buffers never write into an image handed out earlier
            earlier.append((got, ImageSet(got.iwe.copy(), got.d_vx.copy(),
                                          got.d_vy.copy(), got.in_bounds_mass)))
            for handed_out, copied in earlier:
                assert_imagesets_identical(handed_out, copied)


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
        dotted = [float(np.sum(image * grid.image(votes)))
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


    def test_derivative_votes_at_two_velocities_match_the_scalar_votes(self, rng):
        # every stencil stays on the grid at both velocities, so each of the
        # four columns is checked; the second call overwrites the first's
        shape = (16, 12)
        batch = random_interior_batch(rng, 200, shape, margin=4)
        grid = IweScatter(len(batch), shape)
        calls = []
        for v in (Velocity(1.5, -2.0), Velocity(-0.75, 0.5)):
            warped = warp_batch(batch, v)
            grid.scatter(warped)
            votes = grid.derivative_votes()
            want = [[[c.dwx, c.dwy][axis] for c in bilinear_votes(we, shape)]
                    for axis in (0, 1) for we in warped_events(warped)]
            want = np.array(want).reshape(2, len(batch), 4)
            for axis in (0, 1):
                assert np.array_equal(votes[axis], want[axis]), axis
            calls.append((votes, want))
        (first, _), (_, last) = calls
        assert np.array_equal(first[0], last[0]) and np.array_equal(first[1], last[1])

    def test_zero_image_gathers_zero(self, rng):
        shape = (16, 12)
        grid = scatter_iwe(edge_stream(rng, 500, shape), shape)
        assert grid.gather(np.zeros(shape[::-1])) == (0.0, 0.0)


class TestImage:
    """``IweScatter.image`` of arbitrary (n, 4) votes against the per-pixel
    sum of ``votes_image_scalar``, bit for bit: both add each pixel's votes
    in (event, corner) order."""

    @pytest.mark.parametrize("shape", [(7, 5), (16, 12)])
    def test_votes_inside_in_the_ring_and_far_off(self, rng, shape):
        w, h = shape
        n = 600
        where = rng.integers(0, 3, (2, n))
        inside = rng.uniform(0, (w - 1, h - 1), (n, 2)).T
        # the padding ring: floors of -2 and -1, and of w - 1 and w
        ring = np.where(rng.random((2, n)) < 0.5, rng.uniform(-PAD, 0, (2, n)),
                        rng.uniform(0, PAD, (2, n)) + ((w - 1,), (h - 1,)))
        far = rng.choice((-1e9, -3e5, 4e5, 2e12), (2, n)) + rng.random((2, n))
        xy = np.choose(where, (inside, ring, far))
        warped = WarpedBatch(xy, rng.uniform(-1, 1, n))
        grid = scatter_iwe(warped, shape)
        votes = rng.normal(0.0, 3.0, (n, 4))
        got = grid.image(votes)
        assert got.dtype == np.float64 and got.shape == (h, w)
        assert np.array_equal(got, votes_image_scalar(warped, votes, shape))

    def test_no_events_image_float64_zeros(self):
        grid = scatter_iwe(wbatch([], [], []), (8, 6))
        got = grid.image(np.empty((0, 4)))
        assert got.dtype == np.float64 and got.shape == (6, 8)
        assert not got.any()

    def test_each_call_returns_a_new_image(self, rng):
        shape = (16, 12)
        grid = scatter_iwe(random_warped(rng, 200, shape), shape)
        votes = rng.normal(0.0, 1.0, (2, 200, 4))
        first = grid.image(votes[0])
        kept = first.copy()
        second = grid.image(votes[1])
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)


class TestReadoutAllocation:
    def test_a_readout_allocates_nothing_sized_by_n(self, rng):
        """A warm readout, warp into a kept block, scatter and evaluate,
        allocates less than one float row of the batch: what it makes is
        sized by the grid, the padded ``bincount``, the new ``iwe`` and
        ``evaluate``'s I − μ and its square."""
        shape = (64, 64)
        n = 50_000
        w, h = shape
        grid_bytes = 8 * ((w + 2 * PAD) * (h + 2 * PAD) + 3 * w * h)
        assert grid_bytes < 8 * n  # so one float row would not pass unseen
        batch = random_interior_batch(rng, n, shape)
        grid = IweScatter(n, shape)
        kept = np.empty((2, n))

        def readout(v):
            grid.scatter(warp_batch(batch, v, out=kept))
            return evaluate(grid)

        readout(Velocity(1.5, -2.0))  # the warm readout
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            readout(Velocity(-0.5, 3.0))
            growth = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert growth < 8 * n, growth


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
