"""Spans recorded around the benchmark's calls into the library.

A span is (name, start, end, parent, op id).  Names are
``<module>.<function>``, so a span's first dotted part is the layer it
times.  Spans stay in memory until the run ends; self time is a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Collects spans; ``call`` runs a function inside one."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def mark(self) -> int:
        """Index of the next span, to select the spans recorded after it."""
        return len(self.spans)

    def self_times(self, first: int = 0, last: int | None = None):
        """Per-name (call count, self seconds) over spans ``first:last``."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]
        return dict(calls), dict(self_s)

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def untraced_call(name, fn, *args):
    """Same signature as ``Tracer.call``, records nothing."""
    return fn(*args)
