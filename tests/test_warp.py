"""Constant-velocity warping."""

import numpy as np
import pytest

from evcm.warp import Velocity, warp_batch

from conftest import batch_from_arrays, random_interior_batch
from oracles import warp_event


class TestWarpEvent:
    def test_zero_velocity_identity(self):
        we = warp_event(10, 20, 0.5, Velocity(0, 0))
        assert (we.xw, we.yw) == (10, 20)

    def test_direct_evaluation(self):
        we = warp_event(10, 20, 1.0, Velocity(4, -2))
        assert (we.xw, we.yw) == (6, 22)

    def test_sign_symmetry(self):
        we = warp_event(10, 20, -1.0, Velocity(4, -2))
        assert (we.xw, we.yw) == (14, 18)

    def test_antisymmetry(self):
        a = warp_event(7, 3, 0.25, Velocity(2.5, -1.5))
        b = warp_event(7, 3, -0.25, Velocity(-2.5, 1.5))
        assert (a.xw, a.yw) == (b.xw, b.yw)

    def test_non_finite_velocity_rejected(self):
        with pytest.raises(ValueError):
            Velocity(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Velocity(0.0, float("inf"))


class TestWarpBatch:
    def test_zero_velocity_identity(self, rng):
        b = random_interior_batch(rng, 50)
        w = warp_batch(b, Velocity(0, 0))
        assert np.array_equal(w.xs, b.xs.astype(float))
        assert np.array_equal(w.ys, b.ys.astype(float))

    def test_reference_time_fixed_point(self):
        b = batch_from_arrays([100, 100, 100], [1, 2, 3], [4, 5, 6])
        w = warp_batch(b, Velocity(9.0, -7.0))
        assert np.array_equal(w.xs, [1.0, 2.0, 3.0])
        assert np.array_equal(w.ys, [4.0, 5.0, 6.0])

    def test_order_preserved_and_matches_scalar(self, rng):
        b = random_interior_batch(rng, 20)
        v = Velocity(1.25, -0.75)
        w = warp_batch(b, v)
        for k in range(len(b)):
            ref = warp_event(float(b.xs[k]), float(b.ys[k]), float(b.norm_dts[k]), v)
            assert w.xs[k] == ref.xw and w.ys[k] == ref.yw

    def test_affine_in_velocity(self, rng):
        b = random_interior_batch(rng, 30)
        v1, v2 = Velocity(1.0, -2.0), Velocity(0.5, 0.25)
        w1 = warp_batch(b, v1)
        w12 = warp_batch(b, Velocity(v1.vx + v2.vx, v1.vy + v2.vy))
        assert np.allclose(w12.xs - w1.xs, -b.norm_dts * v2.vx)
        assert np.allclose(w12.ys - w1.ys, -b.norm_dts * v2.vy)

    def test_translating_point_collapses_at_true_velocity(self):
        # point moving at u px per normalized unit, sampled at integer times
        u = (3.0, -2.0)
        ts = np.arange(0, 20001, 500)
        t_ref = 10000.0
        dts = (ts - t_ref) / 10000.0
        xs = np.rint(100 + u[0] * dts).astype(int)  # exact when u*dts hits .0/.5 grid
        ys = np.rint(50 + u[1] * dts).astype(int)
        # use only the samples where the path is exactly on-pixel
        keep = (np.abs(100 + u[0] * dts - xs) < 1e-12) & (
            np.abs(50 + u[1] * dts - ys) < 1e-12
        )
        b = batch_from_arrays(ts[keep], xs[keep], ys[keep])
        w = warp_batch(b, Velocity(*u))
        assert np.all(np.abs(w.xs - w.xs[0]) < 1e-9)
        assert np.all(np.abs(w.ys - w.ys[0]) < 1e-9)
