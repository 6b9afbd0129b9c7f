"""In-memory spans and work counters for one benchmark child run.

A span is opened around each call the benchmark makes into a package
layer and is named `<layer>.<function>`; job spans (`job.<name>`) are the
roots and the layer calls nest under them.  Spans live in a list until the
run ends, when `export` turns them into JSON records.  Counters are plain
sums keyed by metric name.

`NullTracer` has the same interface and does nothing, so the untraced run
executes the same job code without recording anything.
"""

from __future__ import annotations

import time


class Tracer:
    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.counters: dict[str, float] = {}
        self._spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._spans.append(record)
        self._stack.append(len(self._spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def export(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
            for i, (name, start, end, parent) in enumerate(self._spans)
        ]


class NullTracer:
    enabled = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
