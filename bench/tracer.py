"""In-memory span tracer for the traced benchmark run.

The tracer wraps program functions at the attributes where callers look them
up (``cli.walk_forward``, ``evaluation.score``, ``forecaster.BASELINES["drift"]``
...), so each call records a span: name, start, end and the index of the
enclosing span.  Nothing in the package is edited; ``uninstall`` puts every
original back.  Only the traced run installs it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

_MISSING = object()


@dataclass(frozen=True)
class Phase:
    """Aggregated spans of one traced phase (a set-up or one job pass)."""

    duration: float
    by_name: dict  # name -> [calls, total_s, self_s]
    counts: dict
    root_s: float  # time covered by spans that have no traced parent

    def calls(self, name: str) -> int:
        return self.by_name.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.by_name.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.by_name.get(name, (0, 0.0, 0.0))[2]

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self._restore: list = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def parent_name(self) -> str | None:
        """Name of the span enclosing the current call (valid inside a note)."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    def patch(self, owner, attr: str, name: str, note=None) -> bool:
        """Wrap ``owner.attr``; a lookup site the program no longer has is skipped."""
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING or not callable(original):
            return False
        setattr(owner, attr, self.wrap(name, original, note))
        self._restore.append(lambda: setattr(owner, attr, original))
        return True

    def patch_item(self, mapping: dict, key, name: str, note=None) -> bool:
        original = mapping.get(key, _MISSING)
        if original is _MISSING:
            return False
        mapping[key] = self.wrap(name, original, note)
        self._restore.append(lambda: mapping.__setitem__(key, original))
        return True

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def take(self, duration: float) -> tuple[Phase, list[list]]:
        """Aggregate and clear the spans recorded since the last take."""
        spans = list(self.spans)
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        child_s = [0.0] * len(spans)
        root_s = 0.0
        for name, start, end, parent in spans:
            if parent < 0:
                root_s += end - start
            else:
                child_s[parent] += end - start
        by_name: dict = {}
        for (name, start, end, _), children in zip(spans, child_s):
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - children
        return Phase(duration, by_name, counts, root_s), spans
