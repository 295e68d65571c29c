"""ROI tracking loop."""

import numpy as np
import pytest

from evcm.events import Roi
from evcm.optimizer import OptimizerConfig
from evcm.synth import SceneConfig, generate_scene
from evcm.tracker import TrackerConfig, track, update_roi
from evcm.warp import Velocity

from conftest import event_array


class TestUpdateRoi:
    def test_zero_velocity_unchanged(self):
        roi = Roi(10, 20, 64, 64)
        assert update_roi(roi, Velocity(0, 0)) == roi

    def test_direct_update(self):
        out = update_roi(Roi(10, 20, 64, 64), Velocity(3, -2), scale=1.0)
        assert (out.x0, out.y0, out.w, out.h) == (13, 18, 64, 64)

    def test_scale_applied(self):
        out = update_roi(Roi(10, 20, 64, 64), Velocity(3, -2), scale=2.0)
        assert (out.x0, out.y0) == (16, 16)

    def test_clamped_to_sensor(self):
        out = update_roi(
            Roi(170, 20, 64, 64), Velocity(50, -100), sensor=(240, 180)
        )
        assert (out.x0, out.y0) == (176, 0)


def scene_events(velocity=(3.0, -2.0), start=(50.0, 100.0), batches=10, seed=7,
                 scene="square", object_size=24, edge_jitter=1.5, noise=0.05,
                 events_per_batch=2000):
    cfg = SceneConfig(
        scene=scene,
        velocity=velocity,
        start=start,
        object_size=object_size,
        batches=batches,
        events_per_batch=events_per_batch,
        noise_fraction=noise,
        edge_jitter=edge_jitter,
        seed=seed,
        sensor=(240, 180),
    )
    return generate_scene(cfg)


class TestTrack:
    def test_unsorted_stream_rejected(self):
        evs = event_array([10, 5], [1, 2], [1, 2], [1, 1])
        with pytest.raises(ValueError):
            track(evs, TrackerConfig())

    def test_batch_count_and_csv_shape(self):
        sc = scene_events(batches=3)
        cfg = TrackerConfig(batch_size=2000, roi_init=Roi(18, 68, 64, 64))
        res = track(sc, cfg)
        assert len(res) == 3
        lines = res.to_csv().splitlines()
        assert lines[0] == "batch,x_roi,y_roi,vx,vy,contrast,events_in_roi"
        assert len(lines) == 4

    def test_batch_size_larger_than_stream(self):
        sc = scene_events(batches=1)
        cfg = TrackerConfig(batch_size=10**6, roi_init=Roi(18, 68, 64, 64))
        res = track(sc, cfg)
        assert len(res) == 1

    def test_empty_roi_skips_and_keeps_velocity(self):
        sc = scene_events(batches=3, noise=0.0)
        v0 = Velocity(1.5, -0.5)
        cfg = TrackerConfig(
            batch_size=2000,
            roi_init=Roi(0, 0, 16, 16),  # static empty background corner
            optimizer=OptimizerConfig(v_init=v0),
        )
        res = track(sc, cfg)
        assert len(res) == 3
        for rec in res.records:
            assert (rec.velocity.vx, rec.velocity.vy) == (v0.vx, v0.vy)
            assert np.isnan(rec.contrast)

    def test_roi_never_leaves_sensor_with_adversarial_velocity(self):
        sc = scene_events(batches=4)
        cfg = TrackerConfig(
            batch_size=2000,
            roi_init=Roi(176, 0, 64, 64),
            roi_update_scale=500.0,  # huge updates must clamp, not escape
        )
        res = track(sc, cfg)
        for rec in res.records:
            assert 0 <= rec.roi.x0 <= 240 - 64
            assert 0 <= rec.roi.y0 <= 180 - 64
        assert 0 <= res.final_roi.x0 <= 240 - 64
        assert 0 <= res.final_roi.y0 <= 180 - 64

    def test_stationary_roi_with_zero_update_scale(self):
        sc = scene_events(batches=2)
        cfg = TrackerConfig(
            batch_size=2000, roi_init=Roi(18, 68, 64, 64), roi_update_scale=0.0
        )
        res = track(sc, cfg)
        for rec in res.records:
            assert (rec.roi.x0, rec.roi.y0) == (18, 68)

    def test_determinism(self):
        sc = scene_events(batches=3)
        cfg = TrackerConfig(batch_size=2000, roi_init=Roi(18, 68, 64, 64))
        a = track(sc, cfg)
        b = track(sc, cfg)
        assert a.to_csv() == b.to_csv()

    def test_warm_start_carries_across_batches(self):
        sc = scene_events(batches=2)
        cfg = TrackerConfig(
            batch_size=2000,
            roi_init=Roi(18, 68, 64, 64),
            optimizer=OptimizerConfig(iterations=1, learning_rate=1e-9),
        )
        res = track(sc, cfg)
        # with a negligible step the velocity stays wherever it started,
        # proving batch 2 started from batch 1's result rather than (0, 0)
        assert abs(res.records[1].velocity.vx - res.records[0].velocity.vx) < 1e-6

    def test_iwe_dump(self, tmp_path):
        sc = scene_events(batches=2)
        cfg = TrackerConfig(
            batch_size=2000, roi_init=Roi(18, 68, 64, 64), dump_iwe_dir=tmp_path
        )
        track(sc, cfg)
        assert (tmp_path / "iwe_0000.pgm").exists()
        assert (tmp_path / "iwe_0001.pgm").exists()
