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
    """Contrast and its (vx, vy) gradient from the IWE ``s`` last scattered.

    The contrast is ``contrast(s.iwe)[0]``. The gradient gathers the centred
    IWE I − μ at each event's four stencil corners:
    ∂C/∂v = 2/P · Σ_events Σ_corners (I − μ)[corner] · ∂w/∂v over the P
    pixels. The mean of the derivative image drops out because the centred
    IWE sums to 0, and corners off the grid read the padding ring's 0.
    """
    c, mu = contrast(s.iwe)
    np.subtract(s.iwe, mu, out=s.centred_interior)
    c0, c1, c2, c3 = np.take(s.centred.ravel(), s.index, out=s.corners, mode="clip").T
    dx, dy, one_dx, one_dy = s.frac
    # ∂x'/∂vx = -dt, so ∂w/∂vx per corner is dt·(1−dy, −(1−dy), dy, −dy)
    g_vx = np.dot(s.dts, one_dy * (c0 - c1) + dy * (c2 - c3))
    g_vy = np.dot(s.dts, one_dx * (c0 - c2) + dx * (c1 - c3))
    scale = 2.0 / s.iwe.size
    return c, scale * float(g_vx), scale * float(g_vy)
