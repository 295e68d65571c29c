"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from evcm.datapath import ImageSet, NaiveAccumulator
from evcm.events import EventArray, EventBatch, make_batch, parse_events
from evcm.objective import evaluate
from evcm.voting import IweScatter
from evcm.warp import WarpedBatch

# On CI every hypothesis test draws the same examples on every run, with no
# per-example deadline on shared runners; each test keeps its max_examples.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def event_array(ts, xs, ys, ps=None) -> EventArray:
    """Event columns from plain lists (polarity defaults to +1)."""
    if ps is None:
        ps = [1] * len(ts)
    return EventArray(
        np.asarray(ts, dtype=np.int64),
        np.asarray(xs, dtype=np.int64),
        np.asarray(ys, dtype=np.int64),
        np.asarray(ps, dtype=np.int8),
    )


# A sensor on which every int64 coordinate lies, for cases that check
# something other than the sensor bounds.
WIDE_SENSOR = (2**63, 2**63)


def parse_lines(lines, sensor_size=WIDE_SENSOR) -> EventArray:
    """``parse_events`` on a temporary file holding ``lines``, each ended by
    ``\\n``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        path.write_bytes("".join(ln + "\n" for ln in lines).encode("latin-1"))
        return parse_events(path, sensor_size)


def batch_from_arrays(ts, xs, ys, ps=None) -> EventBatch:
    """Build a batch from plain lists (polarity defaults to +1)."""
    return make_batch(event_array(ts, xs, ys, ps))


def random_interior_batch(
    rng: np.random.Generator,
    n_events: int,
    grid: tuple[int, int] = (64, 64),
    margin: int = 8,
) -> EventBatch:
    """Random batch whose events sit well inside the grid."""
    w, h = grid
    ts = np.sort(rng.integers(0, 20000, size=n_events))
    ts[0], ts[-1] = 0, 20000  # guarantee a non-degenerate span
    xs = rng.integers(margin, w - margin, size=n_events)
    ys = rng.integers(margin, h - margin, size=n_events)
    ps = rng.choice([-1, 1], size=n_events)
    return batch_from_arrays(ts, xs, ys, ps)


def accumulate_images(
    warped: WarpedBatch, shape, cls=NaiveAccumulator, **kwargs
) -> ImageSet:
    """Accumulate one warped batch into a fresh accumulator and read it."""
    acc = cls(shape, **kwargs)
    acc.accumulate(warped)
    return acc.read_and_clear()


def scatter_iwe(warped: WarpedBatch, shape) -> IweScatter:
    """The estimator's one-image scatter of one warped batch, ready for
    ``objective.evaluate``."""
    grid = IweScatter(len(warped), shape)
    grid.scatter(warped)
    return grid


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def unit_vx_gradient(monkeypatch):
    """``evaluate``, in the package's ascent and in ``every_iteration_ascent``
    alike, returns the true contrast with the gradient (1, 0): whatever the
    batch, every step moves vx by +1 and vy not at all."""
    def unit_vx(grid):
        return evaluate(grid)[0], 1.0, 0.0

    monkeypatch.setattr("evcm.optimizer.evaluate", unit_vx)
    monkeypatch.setattr("oracles.evaluate", unit_vx)


@pytest.fixture
def readouts(monkeypatch):
    """``readouts()`` is the number of IWE readouts (``IweScatter.scatter``
    calls, the one entry of every ascent readout and accumulator vote) made
    since the test started; ``readouts.votes`` lists how many events each
    of them voted."""
    votes: list[int] = []
    scatter = IweScatter.scatter

    def counted(self, warped):
        votes.append(len(warped))
        scatter(self, warped)

    monkeypatch.setattr(IweScatter, "scatter", counted)

    def count() -> int:
        return len(votes)

    count.votes = votes
    return count
