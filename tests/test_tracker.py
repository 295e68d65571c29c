"""ROI tracking loop."""

import numpy as np
import pytest

from evcm.events import Roi, filter_roi, make_batch
from evcm.objective import contrast
from evcm.optimizer import OptimizerConfig, estimate_motion
from evcm.synth import SceneConfig, generate_scene
from evcm.tracker import TrackerConfig, track, update_roi
from evcm.warp import Velocity

from conftest import event_array
from oracles import ascent_readout


class TestUpdateRoi:
    def test_zero_velocity_unchanged(self):
        roi = Roi(10, 20, 64, 64)
        assert update_roi(roi, Velocity(0, 0), 1.0, sensor=(240, 180)) == roi

    def test_direct_update(self):
        out = update_roi(Roi(10, 20, 64, 64), Velocity(3, -2), 1.0, sensor=(240, 180))
        assert (out.x0, out.y0, out.w, out.h) == (13, 18, 64, 64)

    def test_scale_applied(self):
        out = update_roi(Roi(10, 20, 64, 64), Velocity(3, -2), 2.0, sensor=(240, 180))
        assert (out.x0, out.y0) == (16, 16)

    def test_clamped_to_sensor(self):
        out = update_roi(
            Roi(170, 20, 64, 64), Velocity(50, -100), 1.0, sensor=(240, 180)
        )
        assert (out.x0, out.y0) == (176, 0)


class TestTrackerConfig:
    @pytest.mark.parametrize("w,h", [(300, 64), (64, 181), (241, 181)])
    def test_roi_larger_than_sensor_rejected(self, w, h):
        # an oversize ROI would be clamped to a negative origin
        with pytest.raises(ValueError, match=f"ROI {w}x{h} does not fit"):
            TrackerConfig(roi_init=Roi(0, 0, w, h))

    @pytest.mark.parametrize(
        "x0,y0",
        [(500, 68), (177, 0), (0, 117), (-0.5, 0), (0, -1),
         (float("nan"), 0), (0, float("inf")), (-float("inf"), 0)],
    )
    def test_roi_origin_off_the_sensor_rejected(self, x0, y0):
        # an origin past the sensor would be tracked with no events, then
        # clamped back onto the sensor by update_roi
        with pytest.raises(ValueError, match="ROI origin"):
            TrackerConfig(roi_init=Roi(x0, y0, 64, 64))

    @pytest.mark.parametrize("x0,y0", [(0, 0), (176, 116), (175.5, 115.25)])
    def test_roi_origin_on_the_sensor_accepted(self, x0, y0):
        assert TrackerConfig(roi_init=Roi(x0, y0, 64, 64)).roi_init.x0 == x0

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_bad_roi_update_scale_rejected(self, scale):
        # NaN would fail only at batch 1; inf would pin every later ROI to an edge
        with pytest.raises(ValueError, match="roi_update_scale must be non-negative"):
            TrackerConfig(roi_update_scale=scale)

    def test_roi_filling_the_sensor_accepted(self):
        cfg = TrackerConfig(roi_init=Roi(0, 0, 240, 180))
        out = update_roi(cfg.roi_init, Velocity(5, -5), 1.0, sensor=(240, 180))
        assert (out.x0, out.y0) == (0, 0)


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

    def test_contrast_is_taken_at_the_recorded_velocity(self):
        sc = scene_events(batches=3)
        cfg = TrackerConfig(
            batch_size=2000, roi_init=Roi(18, 68, 64, 64), roi_update_scale=2.0
        )
        res = track(sc, cfg)
        for i, rec in enumerate(res.records):
            start = i * cfg.batch_size
            batch = filter_roi(make_batch(sc[start : start + cfg.batch_size]), rec.roi)
            grid = ascent_readout(batch, rec.velocity, (64, 64))
            assert rec.contrast == contrast(grid.iwe)[0]

    def test_batch_size_larger_than_stream(self):
        sc = scene_events(batches=1)
        cfg = TrackerConfig(batch_size=10**6, roi_init=Roi(18, 68, 64, 64))
        res = track(sc, cfg)
        assert len(res) == 1

    @pytest.mark.parametrize("remnant,rows", [(9, 2), (10, 3)])
    def test_trailing_remnant_needs_min_roi_events(self, remnant, rows):
        # a partial last batch is tracked only if it holds at least
        # min_roi_events (10) events
        sc = scene_events(velocity=(2.0, -1.5), batches=3, noise=0.0)
        cfg = TrackerConfig(batch_size=2000, roi_init=Roi(18, 68, 64, 64))
        res = track(sc[: 2 * 2000 + remnant], cfg)
        assert len(res) == rows
        if rows == 3:
            assert res.records[-1].events_in_roi == remnant

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
        # with one ascent step per batch, batch 1's velocity is one step from
        # where its ascent started: batch 0's velocity, not (0, 0)
        sc = scene_events(batches=2)
        cfg = TrackerConfig(
            batch_size=2000,
            roi_init=Roi(18, 68, 64, 64),
            optimizer=OptimizerConfig(iterations=1),
        )
        res = track(sc, cfg)
        roi = res.records[1].roi
        batch = filter_roi(make_batch(sc[2000:4000]), roi)

        def one_step_from(v_init):
            cfg_1 = OptimizerConfig(iterations=1, v_init=v_init)
            return estimate_motion(batch, cfg_1, shape=(roi.w, roi.h))[0]

        warm = one_step_from(res.records[0].velocity)
        assert res.records[1].velocity == warm
        assert warm != one_step_from(Velocity(0.0, 0.0))

    def test_iwe_dump(self, tmp_path):
        sc = scene_events(batches=2)
        cfg = TrackerConfig(
            batch_size=2000, roi_init=Roi(18, 68, 64, 64), dump_iwe_dir=tmp_path
        )
        track(sc, cfg)
        assert (tmp_path / "iwe_0000.pgm").exists()
        assert (tmp_path / "iwe_0001.pgm").exists()

    def test_iwe_dump_names_follow_batches_across_a_skip(self, tmp_path):
        # the middle batch fires in the far corner, outside the ROI, so it
        # skips its ascent and writes no image; batch 2 keeps its own number
        sc = scene_events(batches=3, noise=0.0)
        xs = sc.xs.copy()
        ys = sc.ys.copy()
        xs[2000:4000] = 235
        ys[2000:4000] = 175
        evs = event_array(sc.ts, xs, ys, sc.ps)
        cfg = TrackerConfig(batch_size=2000, roi_init=Roi(18, 68, 64, 64),
                            roi_update_scale=2.0, dump_iwe_dir=tmp_path)
        res = track(evs, cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["iwe_0000.pgm", "iwe_0002.pgm"]
        rows = [line.split(",") for line in res.to_csv().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        assert rows[1][5] == "nan" and rows[1][6] == "0"
        assert rows[0][5] != "nan" and rows[2][5] != "nan"
