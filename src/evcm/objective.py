"""Variance contrast objective and its analytic velocity gradient."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .voting import ImageSet


@dataclass(frozen=True)
class Gradient:
    d_vx: float
    d_vy: float

    @property
    def norm(self) -> float:
        return math.hypot(self.d_vx, self.d_vy)

    def is_finite(self) -> bool:
        return math.isfinite(self.d_vx) and math.isfinite(self.d_vy)


@dataclass(frozen=True)
class ContrastReport:
    contrast: float  # population variance of the IWE, >= 0
    grad: Gradient


def contrast(iwe: np.ndarray) -> tuple[float, float]:
    """Population variance and mean of the accumulated image.

    The divisor is the full pixel count, including pixels that received no
    votes. numpy's pairwise summation keeps the reduction reproducible.
    """
    if iwe.size == 0:
        raise ValueError("contrast of an empty grid is undefined")
    n_p = iwe.size
    mu = float(iwe.sum()) / n_p
    var = float(((iwe - mu) ** 2).sum()) / n_p
    return var, mu


def analytic_gradient(imgs: ImageSet) -> Gradient:
    """Gradient of the variance with respect to (vx, vy).

    Uses the three accumulated images: per axis, center both the IWE and its
    derivative image, multiply elementwise, sum, and scale by 2/N_p.
    """
    iwe = imgs.iwe
    n_p = iwe.size
    mu = float(iwe.sum()) / n_p
    centered = iwe - mu
    g = []
    for d_img in (imgs.d_vx, imgs.d_vy):
        d_mu = float(d_img.sum()) / n_p
        g.append(2.0 / n_p * float((centered * (d_img - d_mu)).sum()))
    return Gradient(g[0], g[1])


def evaluate(imgs: ImageSet) -> ContrastReport:
    """Contrast and gradient of one accumulated image set."""
    return ContrastReport(contrast=contrast(imgs.iwe)[0], grad=analytic_gradient(imgs))
