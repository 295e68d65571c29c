"""Synthetic scene generator."""

import json

import numpy as np
import pytest

from evcm.events import make_batch
from evcm.synth import SceneConfig, SyntheticScene, generate_scene
from evcm.warp import Velocity, warp_batch

from oracles import write_events_scalar


class TestConfigValidation:
    def test_unknown_scene_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(scene="circle")

    def test_noise_fraction_bounds(self):
        with pytest.raises(ValueError):
            SceneConfig(noise_fraction=1.5)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            SceneConfig(batches=0)

    @pytest.mark.parametrize("sensor", [(0, 0), (240, 0), (-10, 180)])
    def test_sensor_sides_positive(self, sensor):
        with pytest.raises(ValueError, match="sensor"):
            SceneConfig(sensor=sensor)

    @pytest.mark.parametrize(
        "field,value",
        [("velocity", (float("nan"), -2.0)), ("velocity", (3.0, float("-inf"))),
         ("start", (120.0, float("inf"))), ("start", (float("nan"), 90.0)),
         ("batch_duration_us", 0), ("batch_duration_us", -5)],
    )
    def test_unusable_scene_rejected(self, field, value):
        # a NaN centre piles every event on one border column, and a zero
        # duration divides by zero
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SceneConfig(**{field: value})


class TestGenerateScene:
    def test_deterministic_per_seed(self, tmp_path):
        cfg = SceneConfig(velocity=(3.0, -2.0), batches=10, seed=7)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_events(pa)
        b.write_events(pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert generate_scene(SceneConfig(velocity=(3.0, -2.0), batches=10, seed=8)) \
            .ts.tolist() != a.ts.tolist()

    def test_event_count_and_sorting(self):
        sc = generate_scene(SceneConfig(batches=3, events_per_batch=500))
        assert len(sc) == 1500
        assert np.all(np.diff(sc.ts) >= 0) or all(
            np.all(np.diff(sc.ts[i * 500 : (i + 1) * 500]) >= 0) for i in range(3)
        )

    def test_zero_velocity_scene_is_stationary(self):
        sc = generate_scene(
            SceneConfig(velocity=(0.0, 0.0), events_per_batch=4000, seed=5)
        )
        half = len(sc) // 2
        # the object does not drift: early and late halves occupy the same
        # region (up to sampling noise)
        assert abs(sc.xs[:half].mean() - sc.xs[half:].mean()) < 0.5
        assert abs(sc.ys[:half].mean() - sc.ys[half:].mean()) < 0.5

    def test_noise_tag_fraction(self):
        n = 5000
        sc = generate_scene(
            SceneConfig(noise_fraction=0.2, events_per_batch=n, seed=9)
        )
        tagged = int(sc.noise_mask.sum())
        assert abs(tagged / n - 0.2) <= 0.01
        assert sc.truth["noise_indices"] == np.flatnonzero(sc.noise_mask).tolist()

    def test_positions_within_sensor(self):
        sc = generate_scene(
            SceneConfig(velocity=(5.0, 5.0), start=(230.0, 170.0), seed=2)
        )
        assert sc.xs.min() >= 0 and sc.xs.max() < 240
        assert sc.ys.min() >= 0 and sc.ys.max() < 180

    @pytest.mark.parametrize("scene", ["square", "bar", "points"])
    def test_warping_at_truth_concentrates_every_scene(self, scene):
        cfg = SceneConfig(
            scene=scene,
            velocity=(4.0, -3.0),
            start=(32.0, 32.0),
            object_size=24,
            events_per_batch=4000,
            seed=11,
            sensor=(64, 64),
        )
        sc = generate_scene(cfg)
        batch = make_batch(sc)
        truth = Velocity(*cfg.velocity)
        w_true = warp_batch(batch, truth)
        w_zero = warp_batch(batch, Velocity(0, 0))
        spread_true = w_true.xs.std() + w_true.ys.std()
        spread_zero = w_zero.xs.std() + w_zero.ys.std()
        assert spread_true < spread_zero

    def test_truth_sidecar_contents(self, tmp_path):
        cfg = SceneConfig(velocity=(3.0, -2.0), batches=2, seed=4)
        sc = generate_scene(cfg)
        path = tmp_path / "truth.json"
        sc.write_truth(path)
        truth = json.loads(path.read_text(encoding="ascii"))
        assert truth["velocity_norm"] == [3.0, -2.0]
        # px/us rate: one batch spans 2 normalized units
        assert truth["velocity_px_per_us"][0] == pytest.approx(
            2 * 3.0 / cfg.batch_duration_us
        )
        assert len(truth["centers"]) == 2
        c0, c1 = truth["centers"]
        assert c1["cx"] - c0["cx"] == pytest.approx(2 * 3.0)

    def test_event_file_matches_scalar_writer(self, tmp_path):
        sc = generate_scene(
            SceneConfig(batches=2, events_per_batch=20_000, noise_fraction=0.1, seed=3)
        )
        assert set(sc.ps.tolist()) == {-1, 1}
        empty = SyntheticScene(*(c[:0] for c in (sc.ts, sc.xs, sc.ys, sc.ps)),
                               noise_mask=sc.noise_mask[:0], truth={})
        for scene in (sc, empty):
            scene.write_events(tmp_path / "columnar.txt")
            write_events_scalar(scene, tmp_path / "scalar.txt")
            assert (tmp_path / "columnar.txt").read_bytes() == (
                tmp_path / "scalar.txt"
            ).read_bytes()

    def test_event_file_format(self, tmp_path):
        sc = generate_scene(SceneConfig(events_per_batch=10, seed=1))
        path = tmp_path / "events.txt"
        sc.write_events(path)
        from evcm.events import parse_events

        evs = parse_events(path, sensor_size=(240, 180))
        assert len(evs) == 10
        assert set(evs.ps.tolist()) <= {-1, 1}
