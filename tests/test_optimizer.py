"""Gradient-ascent motion estimation."""

import math

import numpy as np
import pytest

from evcm.events import make_batch
from evcm.objective import evaluate
from evcm.optimizer import (
    LEARNING_RATE_SCALE,
    OptimizationError,
    OptimizerConfig,
    default_learning_rate,
    estimate_motion,
    final_image_set,
)
from evcm.synth import SceneConfig, generate_scene
from evcm.voting import BankedAccumulator
from evcm.warp import Velocity, warp_batch

from conftest import accumulate_images, random_interior_batch


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
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                OptimizerConfig(learning_rate=bad)

    def test_default_learning_rate_rule(self):
        assert default_learning_rate(999) == LEARNING_RATE_SCALE / 1000


class TestEstimateMotion:
    def test_empty_batch_rejected(self, rng):
        batch = random_interior_batch(rng, 5)
        empty = type(batch)(
            xs=batch.xs[:0], ys=batch.ys[:0],
            t_ref=0.0, half_span_us=0.0, norm_dts=batch.norm_dts[:0],
        )
        with pytest.raises(ValueError):
            estimate_motion(empty, OptimizerConfig(), shape=(64, 64))

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
        imgs = accumulate_images(warp_batch(batch, v0), (64, 64))
        _, g_vx, g_vy = evaluate(imgs)
        v, trace = estimate_motion(
            batch,
            OptimizerConfig(iterations=1, learning_rate=0.01, v_init=v0),
            shape=(64, 64),
        )
        assert v.vx == v0.vx + 0.01 * g_vx
        assert v.vy == v0.vy + 0.01 * g_vy
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
        step_bound = sum(
            1e-4 * math.hypot(r.grad_vx, r.grad_vy) for r in trace.records
        )
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

    def test_banked_replay_of_every_iteration_matches_record(self, rng):
        # the banked datapath, fed the batch warped at each visited velocity,
        # gives the contrast and gradient the ascent recorded, bit for bit
        batch = random_interior_batch(rng, 60, grid=(16, 16), margin=3)
        _, trace = estimate_motion(
            batch, OptimizerConfig(iterations=15, learning_rate=0.05), shape=(16, 16)
        )
        assert len(trace) == 15
        acc = BankedAccumulator((16, 16))
        for r in trace.records:
            acc.accumulate(warp_batch(batch, r.v))
            assert evaluate(acc.read_and_clear()) == (r.contrast, r.grad_vx, r.grad_vy)

    def test_determinism(self, rng):
        batch = random_interior_batch(rng, 200)
        cfg = OptimizerConfig(iterations=20)
        _, t1 = estimate_motion(batch, cfg, shape=(64, 64))
        _, t2 = estimate_motion(batch, cfg, shape=(64, 64))
        assert t1.to_csv() == t2.to_csv()

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
        ref = accumulate_images(warp_batch(batch, v), (64, 64))
        assert np.array_equal(imgs.iwe, ref.iwe)
