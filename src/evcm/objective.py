"""Variance contrast objective and its analytic velocity gradient."""

from __future__ import annotations

import numpy as np

from .voting import ImageSet


def contrast(iwe: np.ndarray) -> tuple[float, float]:
    """Population variance and mean of the accumulated image.

    The divisor is the full pixel count, including pixels that received no
    votes. numpy's pairwise summation keeps the reduction reproducible.
    """
    if iwe.size == 0:
        raise ValueError("contrast of an empty grid is undefined")
    mu = float(iwe.sum()) / iwe.size
    return float(((iwe - mu) ** 2).sum()) / iwe.size, mu


def _centred(grid: np.ndarray) -> np.ndarray:
    return grid - float(grid.sum()) / grid.size


def evaluate(imgs: ImageSet) -> tuple[float, float, float]:
    """Contrast and its (vx, vy) gradient from one centred IWE.

    The contrast is ``contrast(imgs.iwe)[0]``; per axis the gradient is
    2/P · Σ (I − μ)·(D − μ_D) over the P pixels, D being that axis's
    derivative image.
    """
    n_p = imgs.iwe.size
    centred = _centred(imgs.iwe)
    g_vx, g_vy = (2.0 / n_p * float((centred * _centred(d)).sum())
                  for d in (imgs.d_vx, imgs.d_vy))
    return float((centred ** 2).sum()) / n_p, g_vx, g_vy
