"""Gradient-ascent motion estimation."""

import numpy as np
import pytest

from evcm.events import make_batch
from evcm.objective import analytic_gradient
from evcm.optimizer import (
    LEARNING_RATE_SCALE,
    OptimizationError,
    OptimizerConfig,
    default_learning_rate,
    estimate_motion,
    final_image_set,
)
from evcm.synth import SceneConfig, generate_scene
from evcm.voting import accumulate_naive
from evcm.warp import Velocity, warp_batch

from conftest import random_interior_batch


def small_scene_batch(velocity=(2.0, -1.5), seed=3, n=800):
    cfg = SceneConfig(
        scene="square",
        velocity=velocity,
        start=(32.0, 32.0),
        object_size=24,
        events_per_batch=n,
        noise_fraction=0.0,
        seed=seed,
        sensor=(64, 64),
    )
    return make_batch(generate_scene(cfg))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tolerance=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(accumulator_mode="magic")

    def test_default_learning_rate_rule(self):
        assert default_learning_rate(999) == LEARNING_RATE_SCALE / 1000


class TestEstimateMotion:
    def test_empty_batch_rejected(self, rng):
        batch = random_interior_batch(rng, 5)
        empty = type(batch)(
            ts=batch.ts[:0], xs=batch.xs[:0], ys=batch.ys[:0], ps=batch.ps[:0],
            t_ref=0.0, half_span_us=0.0, norm_dts=batch.norm_dts[:0],
        )
        with pytest.raises(ValueError):
            estimate_motion(empty, OptimizerConfig())

    def test_zero_in_bounds_mass_raises(self):
        # one huge step carries every warped event off the 64x64 grid
        batch = small_scene_batch()
        with pytest.raises(OptimizationError, match="iteration 1"):
            estimate_motion(
                batch, OptimizerConfig(iterations=5, learning_rate=1e9), shape=(64, 64)
            )

    def test_warm_start_off_the_grid_raises(self):
        batch = small_scene_batch()
        cfg = OptimizerConfig(iterations=3, v_init=Velocity(1e6, 0.0))
        with pytest.raises(OptimizationError, match="iteration 0"):
            estimate_motion(batch, cfg, shape=(64, 64))

    def test_single_step_contract(self, rng):
        batch = random_interior_batch(rng, 120)
        v0 = Velocity(0.25, -0.5)
        imgs = accumulate_naive(warp_batch(batch, v0), (64, 64))
        g = analytic_gradient(imgs)
        v, trace = estimate_motion(
            batch,
            OptimizerConfig(iterations=1, learning_rate=0.01, v_init=v0),
            shape=(64, 64),
        )
        assert v.vx == v0.vx + 0.01 * g.d_vx
        assert v.vy == v0.vy + 0.01 * g.d_vy
        assert len(trace) == 1
        assert trace.records[0].v == v0

    def test_stationary_at_optimum_with_small_step(self):
        # start at the true velocity: tiny steps must keep the velocity near
        # the optimum and never lose contrast
        truth = Velocity(1.5, -1.0)
        batch = small_scene_batch(velocity=(truth.vx, truth.vy))
        v, trace = estimate_motion(
            batch,
            OptimizerConfig(iterations=10, learning_rate=1e-4, v_init=truth),
            shape=(64, 64),
        )
        contrasts = [r.contrast for r in trace.records]
        assert all(b >= a - 1e-9 for a, b in zip(contrasts, contrasts[1:]))
        step_bound = sum(1e-4 * r.grad.norm for r in trace.records)
        assert np.hypot(v.vx - truth.vx, v.vy - truth.vy) <= step_bound + 1e-15

    def test_contrast_non_decreasing_with_small_step(self):
        # monotonicity is asserted on this fixture with a deliberately small
        # step and an init on the slope toward the optimum; the production
        # default trades strict monotonicity for convergence speed, and an
        # init at exactly (0, 0) sits on a shallow local peak where any step
        # oscillates at the 1e-3 level
        batch = small_scene_batch(velocity=(2.0, -1.5), n=5000)
        _, trace = estimate_motion(
            batch,
            OptimizerConfig(
                iterations=50, learning_rate=0.01, v_init=Velocity(1.5, -1.0)
            ),
            shape=(64, 64),
        )
        contrasts = [r.contrast for r in trace.records]
        assert all(b >= a - 1e-9 for a, b in zip(contrasts, contrasts[1:]))
        assert contrasts[-1] > contrasts[0]

    def test_trace_lengths_and_work_counters(self, rng):
        batch = random_interior_batch(rng, 60, grid=(16, 16), margin=2)
        _, trace = estimate_motion(
            batch, OptimizerConfig(iterations=7, learning_rate=0.01), shape=(16, 16)
        )
        assert len(trace) == 7
        assert trace.vote_ops == 7 * 60
        assert trace.readout_addresses == 7 * 16 * 16

    def test_early_stop_on_gradient_tolerance(self):
        batch = small_scene_batch(velocity=(0.0, 0.0))
        _, trace = estimate_motion(
            batch,
            OptimizerConfig(iterations=100, learning_rate=1e-6, grad_tolerance=1e6),
            shape=(64, 64),
        )
        assert len(trace) == 1

    def test_mode_equivalence_banked_vs_naive(self, rng):
        batch = random_interior_batch(rng, 60, grid=(16, 16), margin=3)
        kwargs = dict(iterations=15, learning_rate=0.05)
        v_n, t_n = estimate_motion(
            batch, OptimizerConfig(accumulator_mode="naive", **kwargs), shape=(16, 16)
        )
        v_b, t_b = estimate_motion(
            batch, OptimizerConfig(accumulator_mode="banked", **kwargs), shape=(16, 16)
        )
        assert (v_n.vx, v_n.vy) == (v_b.vx, v_b.vy)
        for rn, rb in zip(t_n.records, t_b.records):
            assert rn == rb

    def test_determinism(self, rng):
        batch = random_interior_batch(rng, 200)
        cfg = OptimizerConfig(iterations=20)
        _, t1 = estimate_motion(batch, cfg, shape=(64, 64))
        _, t2 = estimate_motion(batch, cfg, shape=(64, 64))
        assert t1.to_csv() == t2.to_csv()

    def test_shape_defaults_to_batch_extent(self):
        from evcm.events import Roi, filter_roi

        batch = small_scene_batch()
        roi_batch = filter_roi(batch, Roi(0, 0, 64, 64))
        v1, _ = estimate_motion(roi_batch, OptimizerConfig(iterations=5))
        v2, _ = estimate_motion(roi_batch, OptimizerConfig(iterations=5), shape=(64, 64))
        assert (v1.vx, v1.vy) == (v2.vx, v2.vy)

    def test_trace_csv_round_trip_precision(self, rng):
        batch = random_interior_batch(rng, 50)
        _, trace = estimate_motion(
            batch, OptimizerConfig(iterations=3, learning_rate=0.01), shape=(64, 64)
        )
        lines = trace.to_csv().splitlines()
        assert lines[0] == "iteration,vx,vy,contrast,grad_vx,grad_vy"
        row = lines[2].split(",")
        assert float(row[3]) == trace.records[1].contrast  # repr round-trips


class TestFinalImageSet:
    def test_matches_pipeline(self, rng):
        batch = random_interior_batch(rng, 80)
        v = Velocity(1.0, -0.5)
        imgs = final_image_set(batch, v, (64, 64))
        ref = accumulate_naive(warp_batch(batch, v), (64, 64))
        assert np.array_equal(imgs.iwe, ref.iwe)
