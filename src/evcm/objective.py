"""Variance contrast C = Σ_p (I[p] − μ)²/P of the IWE I over its P pixels,
and its analytic velocity gradient: by the chain rule ∂C/∂v =
(2/P)·Σ_p (I[p] − μ)·(∂I[p]/∂v − ∂μ/∂v), where μ's derivative drops out as
I − μ sums to 0, leaving 2/P times ``IweScatter.gather(I − μ)``."""

from __future__ import annotations

import numpy as np

from .voting import IweScatter


def evaluate(s: IweScatter) -> tuple[float, float, float]:
    """Contrast and its (vx, vy) gradient at the IWE ``s`` last scattered.
    μ is its ``in_bounds_mass`` over P, the pairwise sum of the IWE, and
    I − μ is formed once for the variance and the gather. I − μ and its
    square are written into the two grids ``s`` keeps, so a readout makes
    no grid-sized temporary: at the paper's operating point (~800 events on
    64x64) per-call set-up, not arithmetic, is most of a readout. numpy's
    pairwise summation over the contiguous square keeps the variance
    reproducible."""
    centred, squared = s.grids()
    np.subtract(s.iwe, s.in_bounds_mass / s.iwe.size, out=centred)
    g_vx, g_vy = s.gather(centred)
    np.multiply(centred, centred, out=squared)
    variance = float(np.add.reduce(squared, axis=None)) / squared.size
    scale = 2.0 / s.iwe.size
    return variance, scale * g_vx, scale * g_vy
