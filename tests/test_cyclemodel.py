"""Cycle-count model and timing projections."""

from dataclasses import replace

import numpy as np
import pytest

from evcm.datapath import (
    PIPELINE_DEPTH,
    REFERENCE_TIMES,
    ROLES,
    BankedAccumulator,
    CycleParams,
    batch_time,
    cycles_per_batch,
    speedup_report,
)
from evcm.optimizer import OptimizerConfig, estimate_motion
from evcm.warp import Velocity, WarpedBatch, warp_batch

from conftest import random_interior_batch
from oracles import BankedDatapathOracle
from test_acceptance import _random_stream
from test_optimizer import small_scene_batch


class TestCyclesPerBatch:
    def test_reference_configuration(self):
        p = CycleParams(N=5000, T=100, n=800, P=4096)
        assert cycles_per_batch(p) == 194100

    def test_zero_work(self):
        p = CycleParams(N=0, T=0, n=0, P=4)
        assert cycles_per_batch(p) == 0

    def test_full_frame_configuration(self):
        p = CycleParams(N=5000, T=90, n=5000, P=240 * 180)
        assert cycles_per_batch(p) == 1433030

    def test_monotone_in_every_parameter(self):
        base = CycleParams(N=100, T=10, n=50, P=64)
        c0 = cycles_per_batch(base)
        for name, value in dict(N=101, T=11, n=51, P=68).items():
            assert cycles_per_batch(replace(base, **{name: value})) >= c0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CycleParams(N=1, T=1, n=1, P=63)
        with pytest.raises(ValueError):
            CycleParams(N=-1, T=1, n=1, P=64)
        with pytest.raises(ValueError):
            CycleParams(N=1, T=1, n=1, P=64, f_clk=0.0)

    def test_more_roi_events_than_batch_events_rejected(self):
        # the ROI events are a subset of the batch; n == N stays valid
        with pytest.raises(ValueError, match=r"n \(801 ROI events\) must not exceed N \(800\)"):
            CycleParams(N=800, T=1, n=801, P=64)
        assert cycles_per_batch(CycleParams(N=800, T=0, n=800, P=64)) == 800

    @pytest.mark.parametrize("clock", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_clock_rejected(self, clock):
        with pytest.raises(ValueError, match="f_clk must be positive and finite"):
            CycleParams(N=1, T=1, n=1, P=64, f_clk=clock)


class TestBatchTime:
    def test_reference_time_at_210mhz(self):
        p = CycleParams(N=5000, T=100, n=800, P=4096)
        assert batch_time(p) * 1e3 == pytest.approx(0.9243, abs=5e-5)

    def test_full_frame_time_at_200mhz(self):
        p = CycleParams(N=5000, T=90, n=5000, P=240 * 180, f_clk=200e6)
        assert batch_time(p) * 1e3 == pytest.approx(7.165, abs=5e-4)

    def test_clock_linearity(self):
        p1 = CycleParams(N=5000, T=100, n=800, P=4096, f_clk=100e6)
        p2 = CycleParams(N=5000, T=100, n=800, P=4096, f_clk=200e6)
        assert batch_time(p1) == 2 * batch_time(p2)


class TestSpeedupReport:
    def test_reference_speedups(self):
        p = CycleParams(N=5000, T=100, n=800, P=4096)
        fpga = batch_time(p)
        assert REFERENCE_TIMES["CPU (i5-11300H)"] / fpga == pytest.approx(201, abs=1)
        assert REFERENCE_TIMES["GPU (RTX 3050 Ti)"] / fpga == pytest.approx(512, abs=1)
        text = speedup_report(p)
        assert "194100" in text
        assert "201" in text
        assert "512" in text

    def test_empty_map_only_projection_row(self):
        p = CycleParams(N=5000, T=100, n=800, P=4096)
        csv = speedup_report(p, measured_times={}, fmt="csv")
        lines = csv.splitlines()
        assert lines[0] == "label,time_ms,speedup"
        assert len(lines) == 2
        assert lines[1].startswith("FPGA projection,")

    def test_unity_speedup(self):
        p = CycleParams(N=5000, T=100, n=800, P=4096)
        csv = speedup_report(p, measured_times={"same": batch_time(p)}, fmt="csv")
        assert csv.splitlines()[2].endswith(",1")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_zero_cycle_projection_rejected(self, fmt):
        p = CycleParams(N=0, T=0, n=0, P=4096)
        with pytest.raises(ValueError, match="projection is 0 cycles"):
            speedup_report(p, fmt=fmt)

    def test_unknown_format_rejected(self):
        p = CycleParams(N=1, T=1, n=1, P=4)
        with pytest.raises(ValueError):
            speedup_report(p, fmt="json")


class TestModelTiesToImplementation:
    def test_work_counters_match_model_terms(self, rng, readouts):
        """The T*n and T*(P/4)*4 terms count real work in the software path."""
        batch = random_interior_batch(rng, 75)
        t_iters = 9
        _, trace = estimate_motion(
            batch,
            OptimizerConfig(iterations=t_iters),
            shape=(64, 64),
        )
        p = CycleParams(N=len(batch), T=t_iters, n=len(batch), P=64 * 64)
        # every readout votes all n ROI events; there is one per step run
        # and the closing one, at most T + 1
        assert readouts.votes == [p.n] * trace.readouts
        assert 1 <= trace.readouts <= p.T + 1
        # and each reads back every address, P/4 of four pixels
        assert trace.final_iwe.size == p.P


def banked_readout(warped, shape):
    """A fresh banked accumulator after one readout of ``warped``."""
    acc = BankedAccumulator(shape)
    acc.accumulate(warped)
    acc.read_and_clear()
    return acc


class TestBankedIssueRate:
    """One event's in-grid corners land in distinct parity banks, so no bank
    takes more than one update per event: voting n events costs n cycles,
    the n term of ``cycles_per_batch``."""

    def test_criterion_4_streams(self):
        rng = np.random.default_rng(99)
        for k in range(1000):
            warped = _random_stream(rng, adversarial=k % 2 == 0)
            acc = banked_readout(warped, (16, 16))
            for role in ROLES:
                assert max(acc.bank_occupancy(role)) <= len(warped)

    def test_paper_point_batch(self):
        # 820 events on a 64x64 grid, read out spread (v = 0), half-way and
        # focused, each counter equal to the per-update oracle's
        batch = small_scene_batch(velocity=(3.0, -2.0), n=820)
        for v in (Velocity(0.0, 0.0), Velocity(1.5, -1.0), Velocity(3.0, -2.0)):
            warped = warp_batch(batch, v)
            acc = banked_readout(warped, (64, 64))
            oracle = BankedDatapathOracle((64, 64))
            oracle.accumulate(warped)
            for role in ROLES:
                assert max(acc.bank_occupancy(role)) <= len(batch)
                assert acc.bank_occupancy(role) == oracle.bank_occupancy(role)
                assert acc.forwarding_hits(role) == oracle.forwarding_hits(role)
        assert sum(acc.forwarding_hits("iwe")) > 0

    @pytest.mark.parametrize("period", [PIPELINE_DEPTH, PIPELINE_DEPTH + 1, 64])
    def test_hits_only_on_repeats_within_pipeline_depth(self, period):
        # ``period`` pixel-centre events two pixels apart, cycled three
        # times: every bank sees each of its words again ``period`` updates
        # later, which is a hit only while the first is still in flight
        xs, ys = np.meshgrid(np.arange(0.5, 16, 2.0), np.arange(0.5, 16, 2.0))
        laps = np.tile(np.arange(period), 3)
        warped = WarpedBatch(np.stack((xs.ravel(), ys.ravel()))[:, laps], np.full(laps.size, 0.5))
        acc = banked_readout(warped, (16, 16))
        oracle = BankedDatapathOracle((16, 16))
        oracle.accumulate(warped)
        hits = 2 * period if period <= PIPELINE_DEPTH else 0
        for role in ROLES:
            assert acc.bank_occupancy(role) == (3 * period,) * 4
            assert acc.forwarding_hits(role) == oracle.forwarding_hits(role) == (hits,) * 4
