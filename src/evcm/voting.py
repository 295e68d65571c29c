"""Bilinear voting: the estimator's kernel, one IWE scatter, which also
serves the accumulators of the datapath model (``datapath``).

This module owns the stencil and the bilinear derivative rule: ``PAD``,
``IweScatter`` with its buffers, the grid check and PGM export. Each warped
event spreads over its four neighboring pixels with bilinear weights, and
every image is one ``IweScatter.image``: one ``np.bincount`` of votes.
``IweScatter`` votes a batch once and keeps its stencil: it holds the IWE,
``gather`` reads any image against the weights' velocity derivatives, and
``derivative_votes`` gives those derivatives as votes. The three vote roles,
the bilinear weights and the two derivatives, are one (3, n, 4) block, one
(n, 4) row per role. A warped batch is
one (2, n) block of x' and y' rows, and each stencil step (floor, fraction,
complement, clamp) is one call over both rows. The estimator scatters the
IWE of each readout and gathers its gradient; the accumulators scatter a
readout window and image its derivative votes.

``np.bincount`` adds each pixel's votes one at a time in stream order, so
every pixel is the same sequential sum wherever it is voted. Off-grid
corners land in a PAD-pixel ring.

Batch-sized temporaries of hundreds of KB go back to the OS and are
page-faulted in again on every readout, which costs more than the
arithmetic, so ``IweScatter`` keeps its buffers for the whole ascent, and
the estimator warps into one kept block. At the paper's operating point
(~800 events on 64x64) most of a readout is per-call set-up, so the scatter
also builds once every view a readout touches: the weight columns, the flat
index that ``bincount`` reads, the floors' transpose for the index product,
the fraction rows and their reverse, and the gather's padded interior, flat
grid, corner and term rows. The constructor makes every buffer the kernel
uses, as the hardware's memories are fixed when it is built: the
estimator's gather buffers, and the role block, whose derivative rows only
the accumulators write. A buffer its client never writes is never touched,
so its pages are never faulted in. Only images are new on every call, as
the estimator's ``final_iwe`` and every ``ImageSet`` hold them; an
objective makes its own grid-sized arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .warp import WarpedBatch

# Padding ring, in pixels per side, that catches stencils leaving the grid.
PAD = 2


class VotingConfigError(ValueError):
    pass


def write_pgm(grid: np.ndarray, path) -> None:
    """Export a grid as 16-bit ASCII PGM, scaled so its peak maps to 65535;
    the scale factor applied to the raw values is recorded in a header
    comment."""
    peak = float(grid.max()) if grid.size else 0.0
    scale = 65535.0 / peak if peak > 0 else 1.0
    values = np.clip(np.rint(grid * scale), 0, 65535).astype(np.uint16)
    h, w = values.shape
    lines = [f"P2", f"# scale {scale!r}", f"{w} {h}", "65535"]
    lines.extend(" ".join(str(v) for v in row) for row in values)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _check_grid(shape: tuple[int, int]) -> None:
    w, h = shape
    if w < 2 or h < 2:
        raise VotingConfigError(f"grid must be at least 2x2, got {w}x{h}")


class IweScatter:
    """One batch's votes: the IWE, scattered by one ``bincount`` per call,
    and at the kept stencil any image gathered and the derivative votes.

    Every buffer of a batch of ``n_events`` events, the stencil's, the
    gather's and the (3, n, 4) block of the three vote roles, and every
    view of them that a readout reads or writes, is made once, here, and
    reused by every readout. Role 0 of the block is ``_weight``, the
    bilinear weights, and roles 1-2 are the ``derivative_votes``, in the
    order of ``datapath.ROLES``. After ``scatter``, ``iwe`` is the (h, w)
    image of warped events and ``in_bounds_mass`` its sum; each ``scatter``
    makes a new ``iwe``, so an image handed out earlier is never
    overwritten.
    """

    def __init__(self, n_events: int, shape: tuple[int, int]) -> None:
        _check_grid(shape)
        w, h = shape
        pw = w + 2 * PAD
        base = PAD * pw + PAD
        self.shape = shape
        self._padded_shape = (h + 2 * PAD, pw)
        self._words = (h + 2 * PAD) * pw
        self._index = np.empty((n_events, 4), dtype=np.intp)
        # the vote roles: the weights, then the derivative votes
        self._roles = np.empty((3, n_events, 4))
        self._weight, self._derivatives = self._roles[0], tuple(self._roles[1:])
        self._flat_index = self._index.reshape(-1)
        self._columns = tuple(self._weight.T)
        # rows dx, dy, 1 - dx, 1 - dy and ones; while the index is built,
        # rows 2-4 hold each event's (i, j, 1): its floors and a 1
        rows = np.empty((5, n_events))
        rows[4] = 1.0
        self._fracs = tuple(rows[:4])  # dx, dy, 1 - dx, 1 - dy
        self._reversed = rows[:4][::-1]
        # the floors borrow the complements' rows
        self._offset, self._floor = rows[:2], rows[2:4]
        self._floors = rows[2:].T  # (n, 3): each event's (i, j, 1)
        # (i, j, 1) @ _to_index is the padded index (j + PAD) * pw + i + PAD
        # of the corners (i, j), (i+1, j), (i, j+1), (i+1, j+1)
        self._to_index = np.array(((1.0,) * 4, (pw,) * 4,
                                   (base, base + 1, base + pw, base + pw + 1)))
        self._top = np.array(((w,), (h,)), dtype=np.float64)  # the floors' upper clamp
        # the gathered image on the padded grid; the ring stays 0, so
        # corners that left the grid gather nothing
        padded = np.zeros(self._padded_shape)
        self._inside = padded[PAD:-PAD, PAD:-PAD]
        self._padded = padded.reshape(-1)
        self._corners = np.empty((n_events, 4))  # the take's target
        c = self._corners.T
        self._c02, self._c13, self._c01, self._c23 = c[0::2], c[1::2], c[:2], c[2:]
        self._terms = np.empty((4, n_events))  # the per-event terms
        t = self._terms
        self._t02, self._t13, self._t01, self._t23 = t[0::2], t[1::2], t[:2], t[2:]
        self._t0, self._t1 = t[0], t[1]

    def scatter(self, warped: WarpedBatch) -> None:
        """Build the bilinear stencil of ``warped`` and sum its IWE.

        ``_index`` and ``_weight`` are (n, 4), event-major with the fixed
        corner order (i,j), (i+1,j), (i,j+1), (i+1,j+1): the index into the
        grid padded by PAD pixels per side and the bilinear weight.
        ``_fracs`` are the rows of the fractional offsets dx, dy and their
        complements. Each step runs once over both coordinate rows and
        writes into the kept buffers, so a readout allocates nothing sized
        by n.

        The floors are clamped to [-PAD, w] x [-PAD, h] before the index is
        built, so a stencil that leaves the grid lands in the padding ring
        whatever its distance, and the int cast cannot overflow (fmin/fmax
        also send NaN there). Clamping only moves stencils that are wholly
        off the grid; the weights come from the unclamped floor. The index
        is one matrix product of integers below 2^53, so it is exact in
        float64 whatever order the product sums in.
        """
        self._dts = warped.dts
        xy, floor = warped.xy, self._floor
        np.floor(xy, out=floor)
        np.subtract(xy, floor, out=self._offset)
        np.fmax(np.fmin(floor, self._top, out=floor), -PAD, out=floor)
        # matmul into the weights, which are written next, then cast: a
        # matmul straight into the int index makes an (n, 4) temporary
        np.matmul(self._floors, self._to_index, out=self._weight)
        np.copyto(self._index, self._weight, casting="unsafe")
        np.subtract(1.0, self._offset, out=floor)
        dx, dy, one_dx, one_dy = self._fracs
        w0, w1, w2, w3 = self._columns
        np.multiply(one_dx, one_dy, out=w0)
        np.multiply(dx, one_dy, out=w1)
        np.multiply(one_dx, dy, out=w2)
        np.multiply(dx, dy, out=w3)
        self.iwe = self.image(self._weight)
        self.in_bounds_mass = float(np.add.reduce(self.iwe, axis=None))

    def image(self, votes: np.ndarray) -> np.ndarray:
        """The (h, w) image of the (n, 4) ``votes`` at the stencil last
        scattered: one ``bincount`` on the padded grid, which adds each
        pixel's votes in stream order, cropped to the grid. The image is
        new on every call, float64 also when n is 0."""
        padded = np.bincount(self._flat_index, votes.reshape(-1), minlength=self._words)
        return padded.reshape(self._padded_shape)[PAD:-PAD, PAD:-PAD].astype(np.float64)

    def derivative_votes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n, 4) votes of ∂I/∂vx and ∂I/∂vy at ``_index``, I being the
        IWE last scattered: the scatter form of ∂w/∂v, whose transpose is
        ``gather``; ``image`` sums them into derivative images. They are
        written into roles 1-2 of the scatter's role block, and the next
        call overwrites them."""
        d_vx, d_vy = self._derivatives
        dx, dy, one_dx, one_dy = self._fracs
        dts = self._dts
        # ∂x'/∂vx = -dt, so per corner ∂w/∂vx is dt·(1−dy, −(1−dy), dy, −dy)
        # and ∂w/∂vy is dt·(1−dx, dx, −(1−dx), −dx)
        np.multiply(dts, one_dy, out=d_vx[:, 0])
        np.negative(d_vx[:, 0], out=d_vx[:, 1])
        np.multiply(dts, dy, out=d_vx[:, 2])
        np.negative(d_vx[:, 2], out=d_vx[:, 3])
        np.multiply(dts, one_dx, out=d_vy[:, 0])
        np.multiply(dts, dx, out=d_vy[:, 1])
        np.negative(d_vy[:, 0], out=d_vy[:, 2])
        np.negative(d_vy[:, 1], out=d_vy[:, 3])
        return d_vx, d_vy

    def gather(self, image: np.ndarray) -> tuple[float, float]:
        """(Σ_p image[p]·∂I[p]/∂vx, Σ_p image[p]·∂I[p]/∂vy) over the pixels p of
        an (h, w) ``image``, I being the IWE last scattered: each event reads
        ``image`` at its stencil corners, and corners off the grid read 0."""
        self._inside[...] = image
        self._padded.take(self._index, out=self._corners, mode="clip")
        # ∂x'/∂vx = -dt, so ∂w/∂vx per corner is dt·(1−dy, −(1−dy), dy, −dy);
        # the rows (1−dy)(c0−c1), (1−dx)(c0−c2), dy(c2−c3), dx(c1−c3) pair
        # up into the vx and vy terms, each as one call over all four rows
        np.subtract(self._c02, self._c13, out=self._t02)
        np.subtract(self._c01, self._c23, out=self._t13)
        np.multiply(self._reversed, self._terms, out=self._terms)
        np.add(self._t01, self._t23, out=self._t01)
        dts = self._dts
        return float(dts.dot(self._t0)), float(dts.dot(self._t1))
