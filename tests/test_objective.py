"""Variance contrast objective and analytic gradient."""

import numpy as np
import pytest

from evcm.objective import analytic_gradient, contrast, evaluate
from evcm.voting import ImageSet
from evcm.warp import Velocity, warp_batch

from conftest import accumulate_images, random_interior_batch


def imageset(iwe, d_vx=None, d_vy=None) -> ImageSet:
    iwe = np.asarray(iwe, dtype=np.float64)
    z = np.zeros_like(iwe)
    return ImageSet(
        iwe=iwe,
        d_vx=z if d_vx is None else np.asarray(d_vx, dtype=np.float64),
        d_vy=z if d_vy is None else np.asarray(d_vy, dtype=np.float64),
        in_bounds_mass=float(iwe.sum()),
    )


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
        imgs = imageset(rng.uniform(0, 3, (8, 8)))
        g = analytic_gradient(imgs)
        assert g.d_vx == 0.0 and g.d_vy == 0.0

    def test_constant_iwe_gives_zero(self, rng):
        imgs = imageset(
            np.full((8, 8), 2.0), rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8))
        )
        g = analytic_gradient(imgs)
        assert g.d_vx == pytest.approx(0.0, abs=1e-12)
        assert g.d_vy == pytest.approx(0.0, abs=1e-12)

    def test_scaling_bilinearity(self, rng):
        iwe = rng.uniform(0, 3, (8, 8))
        dvx = rng.uniform(-1, 1, (8, 8))
        dvy = rng.uniform(-1, 1, (8, 8))
        g1 = analytic_gradient(imageset(iwe, dvx, dvy))
        g2 = analytic_gradient(imageset(3 * iwe, 3 * dvx, 3 * dvy))
        assert g2.d_vx == pytest.approx(9 * g1.d_vx, rel=1e-12)
        assert g2.d_vy == pytest.approx(9 * g1.d_vy, rel=1e-12)

    def test_evaluate_bundles_contrast_and_gradient(self, rng):
        imgs = imageset(
            rng.uniform(0, 3, (8, 8)), rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8))
        )
        rep = evaluate(imgs)
        assert rep.contrast == contrast(imgs.iwe)[0]
        assert rep.grad == analytic_gradient(imgs)
        assert rep.grad.is_finite()


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
            imgs = accumulate_images(warp_batch(batch, v), shape)
            g = analytic_gradient(imgs)
            fx, fy = fd_gradient(batch, v, shape)
            assert abs(g.d_vx - fx) <= 1e-3 * (abs(g.d_vx) + 1e-9)
            assert abs(g.d_vy - fy) <= 1e-3 * (abs(g.d_vy) + 1e-9)
            checked += 1
        assert checked == 100
