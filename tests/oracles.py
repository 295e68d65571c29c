"""Scalar reference twins of the columnar code, kept as test oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from evcm.events import EventParseError, EventValidationError
from evcm.warp import Velocity

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def parse_events_scalar(path, sensor_size):
    """Line-by-line ``t x y p`` parser: (ts, xs, ys, ps) lists, ps in -1/+1.

    Only ``\\n`` ends a line, values beyond int64 are parse errors, and
    polarity must be 0 or 1.
    """
    cols = ([], [], [], [])
    with open(path, "rb") as fh:  # binary lines end at b"\n" only
        lines = [ln.decode("ascii", errors="replace") for ln in fh]
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise EventParseError(line_no, f"expected 4 fields, got {len(parts)}")
        t_tok, x_tok, y_tok, p_tok = parts
        try:
            t = int(round(float(t_tok) * 1e6)) if "." in t_tok else int(t_tok)
            x = int(x_tok)
            y = int(y_tok)
            p = int(p_tok)
        except (ValueError, OverflowError) as exc:
            raise EventParseError(line_no, f"unparseable field: {exc}") from None
        if not all(INT64_MIN <= v <= INT64_MAX for v in (t, x, y, p)):
            raise EventParseError(line_no, "field beyond int64")
        if t < 0 or x < 0 or y < 0:
            raise EventValidationError(line_no, f"negative field in {line!r}")
        if p not in (0, 1):
            raise EventParseError(line_no, f"polarity must be 0 or 1, got {p}")
        sw, sh = sensor_size
        if x >= sw or y >= sh:
            raise EventValidationError(
                line_no, f"coordinates ({x}, {y}) outside sensor {sw}x{sh}"
            )
        for col, v in zip(cols, (t, x, y, -1 if p == 0 else 1)):
            col.append(v)
    return cols


def write_events_scalar(scene, path) -> None:
    """Events-file writer formatting numpy scalars one event at a time."""
    lines = [
        f"{t} {x} {y} {0 if p < 0 else 1}"
        for t, x, y, p in zip(scene.ts, scene.xs, scene.ys, scene.ps)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass(frozen=True)
class WarpedEvent:
    """Event displaced to the reference time; sub-pixel, ROI-local coords."""

    xw: float
    yw: float
    norm_dt: float


def warp_event(x: float, y: float, norm_dt: float, v: Velocity) -> WarpedEvent:
    """Displace one event: x' = x - dt*vx, y' = y - dt*vy."""
    return WarpedEvent(x - norm_dt * v.vx, y - norm_dt * v.vy, norm_dt)


def warped_events(warped) -> Iterator[WarpedEvent]:
    """A ``WarpedBatch`` as one ``WarpedEvent`` per event, in order."""
    for x, y, dt in zip(warped.xs, warped.ys, warped.dts):
        yield WarpedEvent(float(x), float(y), float(dt))


@dataclass(frozen=True)
class VoteContribution:
    """One pixel's share of a warped event: weight plus its two velocity
    derivatives."""

    pixel: tuple[int, int]  # (i, j) ROI-local
    w: float
    dwx: float
    dwy: float


def bilinear_votes(we: WarpedEvent, shape: tuple[int, int]) -> list[VoteContribution]:
    """Vote contributions of one warped event to its four neighbor pixels.

    Pixels outside [0, w) x [0, h) are dropped. Weights follow the bilinear
    split of the fractional coordinates; the derivative entries are the
    weight's sensitivity to vx and vy (chain rule through x' = x - dt*v).
    """
    w_dim, h_dim = shape
    i = math.floor(we.xw)
    j = math.floor(we.yw)
    dx = we.xw - i
    dy = we.yw - j
    ndt = -we.norm_dt
    cells = (
        (i, j, (1.0 - dx) * (1.0 - dy), -(1.0 - dy), -(1.0 - dx)),
        (i + 1, j, dx * (1.0 - dy), (1.0 - dy), -dx),
        (i, j + 1, (1.0 - dx) * dy, -dy, (1.0 - dx)),
        (i + 1, j + 1, dx * dy, dy, dx),
    )
    out = []
    for ci, cj, w, dw_ddx, dw_ddy in cells:
        if 0 <= ci < w_dim and 0 <= cj < h_dim:
            out.append(VoteContribution((ci, cj), w, ndt * dw_ddx, ndt * dw_ddy))
    return out


def contrast_gradient_scalar(imgs) -> tuple[float, float, float]:
    """Two-pass contrast and (vx, vy) gradient of an ``ImageSet`` in Python
    floats: the variance of the IWE I, and per axis 2/P · Σ (I − μ)(D − μ_D)
    over the P pixels, D being that axis's derivative image. Every sum is an
    exactly rounded ``math.fsum``."""
    iwe = [float(v) for v in imgs.iwe.ravel()]
    n_p = len(iwe)
    mu = math.fsum(iwe) / n_p
    centred = [v - mu for v in iwe]
    out = [math.fsum(c * c for c in centred) / n_p]
    for d_img in (imgs.d_vx, imgs.d_vy):
        d = [float(v) for v in d_img.ravel()]
        d_mu = math.fsum(d) / n_p
        out.append(2.0 / n_p * math.fsum(c * (v - d_mu) for c, v in zip(centred, d)))
    return out[0], out[1], out[2]
