"""Variance contrast objective and its analytic velocity gradient."""

from __future__ import annotations

import numpy as np

from .voting import IweScatter


def contrast(iwe: np.ndarray) -> tuple[float, float]:
    """Population variance and mean of the accumulated image.

    The divisor is the full pixel count, including pixels that received no
    votes. numpy's pairwise summation keeps the reduction reproducible.
    """
    if iwe.size == 0:
        raise ValueError("contrast of an empty grid is undefined")
    mu = float(iwe.sum()) / iwe.size
    return float(((iwe - mu) ** 2).sum()) / iwe.size, mu


def evaluate(s: IweScatter) -> tuple[float, float, float]:
    """Contrast and its (vx, vy) gradient from the IWE ``s`` last scattered:
    ``contrast(s.iwe)[0]`` and ``s.gradient`` at the IWE's mean."""
    c, mu = contrast(s.iwe)
    return (c, *s.gradient(mu))
