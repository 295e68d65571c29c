"""Cycle-count model and timing projections."""

import pytest

from evcm.cyclemodel import (
    REFERENCE_TIMES,
    CycleParams,
    batch_time,
    cycles_per_batch,
    speedup_report,
)
from evcm.optimizer import OptimizerConfig, estimate_motion

from conftest import random_interior_batch


class TestCyclesPerBatch:
    def test_reference_configuration(self):
        p = CycleParams(N=5000, T=100, n=800, P=4096, L_r=32, L_v=35)
        assert cycles_per_batch(p) == 194100

    def test_zero_work(self):
        p = CycleParams(N=0, T=0, n=0, P=4, L_r=0, L_v=0)
        assert cycles_per_batch(p) == 0

    def test_full_frame_configuration(self):
        p = CycleParams(N=5000, T=90, n=5000, P=240 * 180)
        assert cycles_per_batch(p) == 1433030

    def test_monotone_in_every_parameter(self):
        base = CycleParams(N=100, T=10, n=50, P=64, L_r=4, L_v=5)
        c0 = cycles_per_batch(base)
        bumps = dict(N=101, T=11, n=51, P=68, L_r=5, L_v=6)
        for name, value in bumps.items():
            kwargs = {
                "N": base.N, "T": base.T, "n": base.n,
                "P": base.P, "L_r": base.L_r, "L_v": base.L_v,
            }
            kwargs[name] = value
            assert cycles_per_batch(CycleParams(**kwargs)) >= c0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CycleParams(N=1, T=1, n=1, P=63)
        with pytest.raises(ValueError):
            CycleParams(N=-1, T=1, n=1, P=64)
        with pytest.raises(ValueError):
            CycleParams(N=1, T=1, n=1, P=64, f_clk=0.0)

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

    def test_unknown_format_rejected(self):
        p = CycleParams(N=1, T=1, n=1, P=4)
        with pytest.raises(ValueError):
            speedup_report(p, fmt="json")


class TestModelTiesToImplementation:
    def test_work_counters_match_model_terms(self, rng):
        """The T*n and T*(P/4)*4 terms count real work in the software path."""
        batch = random_interior_batch(rng, 75)
        t_iters = 9
        _, trace = estimate_motion(
            batch,
            OptimizerConfig(iterations=t_iters, learning_rate=0.01),
            shape=(64, 64),
        )
        p = CycleParams(N=len(batch), T=t_iters, n=len(batch), P=64 * 64)
        assert trace.vote_ops == p.T * p.n
        assert trace.readout_addresses == p.T * (p.P // 4) * 4
