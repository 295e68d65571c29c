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
    square are fresh arrays: grids kept for them in the scatter were
    measured no faster, a readout of 9000 events on 64x64 to 240x180
    taking the same time or less with fresh ones, and an objective that
    makes its own scratch changes this module alone. numpy's pairwise
    summation over the contiguous square keeps the variance
    reproducible."""
    centred = s.iwe - s.in_bounds_mass / s.iwe.size
    g_vx, g_vy = s.gather(centred)
    variance = float(np.add.reduce(centred * centred, axis=None)) / centred.size
    scale = 2.0 / s.iwe.size
    return variance, scale * g_vx, scale * g_vy
