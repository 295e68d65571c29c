"""Variance contrast objective and analytic gradient."""

import math

import numpy as np
import pytest

from evcm.objective import evaluate
from evcm.warp import Velocity, WarpedBatch, warp_batch

from conftest import accumulate_images, random_interior_batch, scatter_iwe
from oracles import contrast, contrast_gradient_scalar


def warped_on_pixels(rng, grid):
    """One event on every pixel of ``grid``, at whole-pixel coordinates and
    random normalized times."""
    w, h = grid
    jj, ii = np.mgrid[0:h, 0:w]
    return WarpedBatch(np.stack((ii.ravel(), jj.ravel())).astype(float),
                       rng.uniform(-1, 1, w * h))


class TestContrast:
    def test_constant_grid(self):
        var, mu = contrast(np.full((4, 4), 3.0))
        assert var == 0.0
        assert mu == 3.0

    def test_direct_small_grid(self):
        var, mu = contrast(np.array([[0.0, 0.0], [0.0, 4.0]]))
        assert mu == 1.0
        assert var == 3.0

    def test_matches_two_pass_oracle(self, rng):
        for _ in range(50):
            grid = rng.uniform(0, 10, size=(64, 64))
            var, mu = contrast(grid)
            mu_oracle = sum(float(v) for v in grid.ravel()) / grid.size
            var_oracle = (
                sum((float(v) - mu_oracle) ** 2 for v in grid.ravel()) / grid.size
            )
            assert mu == pytest.approx(mu_oracle, rel=1e-12)
            assert var == pytest.approx(var_oracle, rel=1e-12)

    def test_shift_invariance(self, rng):
        grid = rng.uniform(0, 5, size=(32, 32))
        var, _ = contrast(grid)
        var_shifted, _ = contrast(grid + 7.25)
        assert var_shifted == pytest.approx(var, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            contrast(np.zeros((0, 0)))


class TestAnalyticGradient:
    def test_zero_derivative_images(self, rng):
        # events at the reference time do not move with v: both derivative
        # images are 0, and so is the gathered gradient
        warped = WarpedBatch(np.stack((rng.uniform(0, 7, 50), rng.uniform(0, 7, 50))), np.zeros(50))
        imgs = accumulate_images(warped, (8, 8))
        assert not imgs.d_vx.any() and not imgs.d_vy.any()
        _, g_vx, g_vy = evaluate(scatter_iwe(warped, (8, 8)))
        assert g_vx == 0.0 and g_vy == 0.0

    def test_constant_iwe_gives_zero(self, rng):
        warped = warped_on_pixels(rng, (8, 8))
        grid = scatter_iwe(warped, (8, 8))
        assert np.array_equal(grid.iwe, np.ones((8, 8)))
        assert accumulate_images(warped, (8, 8)).d_vx.any()
        c, g_vx, g_vy = evaluate(grid)
        assert c == 0.0 and g_vx == 0.0 and g_vy == 0.0

    def test_scaling_bilinearity(self, rng):
        # every event three times over: the IWE and both derivative images
        # triple, so contrast and gradient grow ninefold
        batch = random_interior_batch(rng, 300)
        warped = warp_batch(batch, Velocity(0.7, -1.1))
        tripled = WarpedBatch(np.repeat(warped.xy, 3, axis=1), np.repeat(warped.dts, 3))
        c1, gx1, gy1 = evaluate(scatter_iwe(warped, (64, 64)))
        c3, gx3, gy3 = evaluate(scatter_iwe(tripled, (64, 64)))
        assert c3 == pytest.approx(9 * c1, rel=1e-12)
        assert gx3 == pytest.approx(9 * gx1, rel=1e-12)
        assert gy3 == pytest.approx(9 * gy1, rel=1e-12)

    def test_evaluate_bundles_contrast_and_gradient(self, rng):
        warped = warp_batch(random_interior_batch(rng, 200), Velocity(-0.4, 0.9))
        grid = scatter_iwe(warped, (64, 64))
        c, g_vx, g_vy = evaluate(grid)
        ref = accumulate_images(warped, (64, 64))
        assert np.array_equal(grid.iwe, ref.iwe)
        assert grid.in_bounds_mass == ref.in_bounds_mass
        assert c == contrast(ref.iwe)[0]  # the bare-grid variance, bit for bit
        assert math.isfinite(g_vx) and math.isfinite(g_vy)

    def test_matches_two_pass_oracle(self, rng):
        # the gather against the three-image gradient of the naive
        # accumulator's images, for random batches at random velocities,
        # stencils off the grid included
        for _ in range(40):
            n = int(rng.integers(50, 2001))
            batch = random_interior_batch(rng, n, margin=int(rng.integers(0, 9)))
            v = Velocity(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)))
            warped = warp_batch(batch, v)
            assert evaluate(scatter_iwe(warped, (64, 64))) == pytest.approx(
                contrast_gradient_scalar(accumulate_images(warped, (64, 64))),
                rel=1e-12, abs=0.0,
            )


def fd_gradient(batch, v, shape, step=1e-4):
    """Central finite differences of contrast(v) over the full pipeline."""
    out = []
    for dvx, dvy in ((step, 0.0), (0.0, step)):
        c_plus = contrast(
            accumulate_images(
                warp_batch(batch, Velocity(v.vx + dvx, v.vy + dvy)), shape
            ).iwe
        )[0]
        c_minus = contrast(
            accumulate_images(
                warp_batch(batch, Velocity(v.vx - dvx, v.vy - dvy)), shape
            ).iwe
        )[0]
        out.append((c_plus - c_minus) / (2 * step))
    return out


def probe_is_smooth(batch, v, shape, margin=2.5e-4):
    """True when no warped coordinate sits within ``margin`` of a pixel
    boundary at v. The objective is piecewise smooth; a central difference
    with step 1e-4 must not straddle a floor crossing (|norm_dt| <= 1, so
    coordinates move by at most 1e-4 per probe)."""
    w = warp_batch(batch, v)
    fx = w.xs - np.floor(w.xs)
    fy = w.ys - np.floor(w.ys)
    return bool(
        np.all((fx > margin) & (fx < 1 - margin))
        and np.all((fy > margin) & (fy < 1 - margin))
    )


class TestFiniteDifferenceAgreement:
    def test_analytic_matches_central_differences(self, rng):
        shape = (64, 64)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 2000:
            attempts += 1
            n = int(rng.integers(50, 501))
            batch = random_interior_batch(rng, n, grid=shape, margin=8)
            v = Velocity(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            if not probe_is_smooth(batch, v, shape):
                continue
            _, g_vx, g_vy = evaluate(scatter_iwe(warp_batch(batch, v), shape))
            fx, fy = fd_gradient(batch, v, shape)
            assert abs(g_vx - fx) <= 1e-3 * (abs(g_vx) + 1e-9)
            assert abs(g_vy - fy) <= 1e-3 * (abs(g_vy) + 1e-9)
            checked += 1
        assert checked == 100
