"""In-memory span recorder for the traced benchmark run.

A span has a name, an id, the id of the span that caused it, and start and
end times from time.perf_counter. A trial's span id is its seed key
(seed, t); a layer span inside it has id (seed, t, name) and the trial as
its parent. Spans stay in memory until the run ends and are then written
out with the result.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    id: tuple
    parent: tuple | None
    start: float
    end: float

    def to_json(self) -> dict:
        return {"name": self.name, "id": list(self.id),
                "parent": None if self.parent is None else list(self.parent),
                "start": self.start, "end": self.end}


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []

    @contextmanager
    def trial(self, key: tuple):
        with self._span("trial", key, None):
            yield

    @contextmanager
    def layer(self, name: str, key: tuple):
        with self._span(name, key + (name,), key):
            yield

    @contextmanager
    def _span(self, name, span_id, parent):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, span_id, parent, start,
                                   time.perf_counter()))

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover. A child that runs outside its parent's interval
    (the lower-hull control runs after its trial closes) covers none of it.
    """
    by_id = {s.id: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            covered[s.parent] += max(0.0, min(s.end, p.end) - max(s.start, p.start))
    totals = defaultdict(float)
    for s in spans:
        totals[s.name] += (s.end - s.start) - covered[s.id]
    return dict(totals)
