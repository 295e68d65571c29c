"""Synthetic scene generator."""

import json
from dataclasses import replace

import numpy as np
import pytest

from evcm.events import make_batch, parse_events
from evcm.synth import _WRITE_CHUNK, SceneConfig, SyntheticScene, generate_scene
from evcm.warp import Velocity, warp_batch

from oracles import generate_scene_per_batch, write_events_scalar


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
         ("batch_duration_us", 0), ("batch_duration_us", -5),
         ("object_size", 0), ("object_size", -5), ("seed", -1),
         ("edge_jitter", -1.5), ("edge_jitter", float("nan")),
         ("edge_jitter", float("inf"))],
    )
    def test_unusable_scene_rejected(self, field, value):
        # a NaN centre piles every event on one border column, a zero
        # duration divides by zero, a negative size mirrors the object, and
        # a negative or non-finite jitter fails only inside the offset draw
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

    def test_off_sensor_events_dropped_not_clipped(self):
        # the square leaves a 64x64 sensor through its right edge; the events
        # kept are exactly those a wider sensor sees on the same 64x64 area
        cfg = SceneConfig(velocity=(5.0, 0.0), start=(60.0, 32.0), object_size=24,
                          events_per_batch=3000, seed=6, sensor=(64, 64))
        small = generate_scene(cfg)
        wide = generate_scene(replace(cfg, sensor=(240, 180)))
        on = (wide.xs < 64) & (wide.ys < 64)
        for name in ("ts", "xs", "ys", "ps", "noise_mask"):
            assert np.array_equal(getattr(small, name), getattr(wide, name)[on])
        assert wide.truth["n_off_sensor"] == 0
        assert small.truth["n_off_sensor"] == int((~on).sum()) > 0
        assert small.truth["n_events"] == len(small)

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
        rng = np.random.default_rng(27)
        scenes = [sc]
        for n in (0, 1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1,
                  3 * _WRITE_CHUNK + 5):
            scenes.append(SyntheticScene(*(any_int64(rng, n) for _ in range(3)),
                                         rng.choice(np.array([-1, 1], dtype=np.int8), n),
                                         noise_mask=np.zeros(n, dtype=bool), truth={}))
        for scene in scenes:
            scene.write_events(tmp_path / "columnar.txt")
            write_events_scalar(scene, tmp_path / "scalar.txt")
            assert (tmp_path / "columnar.txt").read_bytes() == (
                tmp_path / "scalar.txt"
            ).read_bytes()

    def test_event_file_format(self, tmp_path):
        # each scene fills one chunk of the writer and part of a second
        path = tmp_path / "events.txt"
        for kind in ("square", "bar", "points"):
            sc = generate_scene(SceneConfig(scene=kind, batches=2, events_per_batch=9000,
                                            noise_fraction=0.05, seed=1))
            assert _WRITE_CHUNK < len(sc) < 2 * _WRITE_CHUNK
            sc.write_events(path)
            evs = parse_events(path, sensor_size=sc.truth["config"]["sensor"])
            for name in ("ts", "xs", "ys", "ps"):
                assert getattr(evs, name).dtype == getattr(sc, name).dtype
                assert np.array_equal(getattr(evs, name), getattr(sc, name)), (kind, name)


def any_int64(rng, n):
    """n int64 values of every digit count from 1 to 19, mixed, with either
    sign, and 0, -1, INT64_MIN and INT64_MAX among them when n allows."""
    digits = np.arange(n) % 19 + 1
    rng.shuffle(digits)
    low = 10 ** (digits - 1)
    high = np.where(digits < 19, 10 ** np.minimum(digits, 18), np.iinfo(np.int64).max)
    values = rng.integers(low, high) * rng.choice(np.array([-1, 1]), n)
    special = [0, -1, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    values[rng.permutation(n)[: len(special)]] = special[: n]
    return values


# Every scene shape, noise 0, 0.05 and 1.0, one batch and several, zero
# jitter, events dropped off the sensor's edges, and the shapes the
# benchmark generates its inputs from: track-file's 5 x 10k square at 5%
# noise, and paper-point's 800-event noiseless square with its 4200-event
# ``points`` distractor at 5% noise.
PER_BATCH_CONFIGS = [
    SceneConfig(scene="square", batches=1, events_per_batch=3000, seed=1),
    SceneConfig(scene="bar", velocity=(-4.0, 5.0), batches=6,
                events_per_batch=2000, noise_fraction=0.05, seed=2),
    SceneConfig(scene="points", velocity=(1.5, 4.5), batches=5,
                events_per_batch=1500, noise_fraction=1.0, seed=3),
    SceneConfig(scene="points", velocity=(-2.0, -1.0), object_size=30, batches=2,
                events_per_batch=2500, edge_jitter=0.0, seed=4),
    SceneConfig(scene="square", velocity=(5.0, 5.0), start=(230.0, 170.0),
                batches=5, events_per_batch=2000, noise_fraction=0.05, seed=5),
    SceneConfig(scene="bar", velocity=(-5.0, -3.0), start=(4.0, 6.0),
                object_size=24, batches=1, events_per_batch=3000, seed=6),
    SceneConfig(scene="square", velocity=(5.0, 0.0), start=(60.0, 32.0),
                object_size=24, batches=3, events_per_batch=3000,
                noise_fraction=0.05, seed=6, sensor=(64, 64)),
    SceneConfig(scene="square", velocity=(3.0, -2.0), start=(50.0, 100.0),
                object_size=24, batches=5, events_per_batch=10_000,
                noise_fraction=0.05, seed=1_608_637_542),
    SceneConfig(scene="square", velocity=(-3.7, 2.2), start=(61.5, 97.3),
                object_size=24, events_per_batch=800, seed=123_456_789),
    SceneConfig(scene="points", velocity=(1.9, -4.4), start=(181.2, 77.7),
                object_size=30, events_per_batch=4200, noise_fraction=0.05,
                seed=987_654_321),
]


@pytest.mark.parametrize("cfg", PER_BATCH_CONFIGS, ids=range(len(PER_BATCH_CONFIGS)))
def test_scene_bytes_match_per_batch_generator(cfg):
    # the benchmark's inputs are generated scenes: their bytes must not move
    got = generate_scene(cfg)
    want = generate_scene_per_batch(cfg)
    for name in ("ts", "xs", "ys", "ps", "noise_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert json.dumps(got.truth, sort_keys=True) == json.dumps(want.truth, sort_keys=True)
