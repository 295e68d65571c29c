"""Closed-form cycle-count model of the accelerator and timing projections.

Per batch: the full batch is preprocessed once (N cycles), then every
optimization iteration replays the ROI events through warping and voting
(n + fixed latencies) and reads the grid back four addresses at a time
(P/4). Reference CPU/GPU timings ship as defaults for the speedup table.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

DEFAULT_READOUT_LATENCY = 32
DEFAULT_VOTING_LATENCY = 35
DEFAULT_CLOCK_HZ = 210e6

# Published host timings for the 5000-event / 64x64 ROI / 100-iteration batch.
REFERENCE_TIMES: dict[str, float] = {
    "CPU (i5-11300H)": 0.18596,
    "GPU (RTX 3050 Ti)": 0.47351,
}


@dataclass(frozen=True)
class CycleParams:
    N: int                                  # events in the batch
    T: int                                  # optimization iterations
    n: int                                  # events inside the ROI
    P: int                                  # ROI pixel count, divisible by 4
    L_r: int = DEFAULT_READOUT_LATENCY
    L_v: int = DEFAULT_VOTING_LATENCY
    f_clk: float = DEFAULT_CLOCK_HZ

    def __post_init__(self) -> None:
        for name in ("N", "T", "n", "P", "L_r", "L_v"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.P % 4 != 0:
            raise ValueError(f"P must be divisible by 4, got {self.P}")
        # chained comparisons are False for NaN, so NaN fails the check
        if not 0 < self.f_clk < math.inf:
            raise ValueError(f"f_clk must be positive and finite, got {self.f_clk}")


def cycles_per_batch(p: CycleParams) -> int:
    """Clock cycles to process one batch: N + T * (n + L_r + P/4 + L_v)."""
    return p.N + p.T * (p.n + p.L_r + p.P // 4 + p.L_v)


def batch_time(p: CycleParams) -> float:
    """Projected wall-clock seconds for one batch at the given clock."""
    return cycles_per_batch(p) / p.f_clk


def speedup_report(
    p: CycleParams,
    measured_times: dict[str, float] | None = None,
    fmt: str = "text",
) -> str:
    """Comparison table: each measured time against the projected batch time.

    ``measured_times`` maps label -> seconds; None selects the published
    reference timings. Speedups are displayed to 3 significant figures.
    """
    if measured_times is None:
        measured_times = REFERENCE_TIMES
    cycles = cycles_per_batch(p)
    fpga_s = batch_time(p)
    rows = [("FPGA projection", fpga_s, 1.0)]
    rows.extend(
        (label, t, t / fpga_s) for label, t in measured_times.items()
    )
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("label,time_ms,speedup\n")
        for label, t, s in rows:
            buf.write(f"{label},{t * 1e3:.6g},{s:.3g}\n")
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    buf.write(f"cycles per batch: {cycles}\n")
    buf.write(f"clock: {p.f_clk / 1e6:g} MHz\n")
    width = max(len(label) for label, _, _ in rows)
    buf.write(f"{'target':<{width}}  {'time':>12}  {'speedup':>8}\n")
    for label, t, s in rows:
        buf.write(f"{label:<{width}}  {t * 1e3:>9.4f} ms  {s:>7.3g}x\n")
    return buf.getvalue()
