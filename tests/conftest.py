"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from evcm.events import EventArray, EventBatch, make_batch


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
