"""In-memory span recorder for the traced run.

Wraps callables at the names their callers look up, records one span per
call (id, parent id, name, phase, start, end) and named counts, and derives
each span's self time (its duration minus the spans it caused). Nothing
inside the measured package changes; uninstalling restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict


def resolve(path: str):
    """Module or attribute named by a dotted path, or None if it is gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    head, _, attr = path.rpartition(".")
    if not head:
        return None
    owner = resolve(head)
    return getattr(owner, attr, None) if owner is not None else None


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, phase, t0, t1)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self.active = False
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, counter) target. A target
        that no longer exists is listed in ``absent`` and skipped."""
        for owner_path, attr, name, counter in targets:
            owner = resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                label = f"{owner_path}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = next(rec._ids)
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec.spans.append((sid, parent, name, rec.phase, t0, t1))
            if counter is not None:
                for key, value in counter(args, result).items():
                    rec.counts[(rec.phase, key)] += value
            return result

        return wrapper

    def totals(self):
        """(inclusive, self) time summed per (phase, span name). Self time
        is a span's duration minus the durations of the spans it caused."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        inclusive: dict[tuple[str, str], float] = defaultdict(float)
        own: dict[tuple[str, str], float] = defaultdict(float)
        for sid, _, name, phase, t0, t1 in self.spans:
            inclusive[(phase, name)] += t1 - t0
            own[(phase, name)] += (t1 - t0) - covered[sid]
        return inclusive, own

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,phase,t0,t1\n")
            for sid, parent, name, phase, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{'' if parent is None else parent},"
                         f"{name},{phase},{t0!r},{t1!r}\n")
