"""In-memory spans recorded by the benchmark around its calls into lupi.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that was open when it began (its parent) and the run id.
Spans are kept in a list while the benchmark runs and written out as JSON
lines when it ends. The first component of a span name is its layer
(``solvers.solve_ne.n12`` belongs to ``solvers``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans; ``open``/``close`` nest, ``record`` adds a finished leaf."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])

    def layer_self_times(self, roots: list[int]) -> list[dict[str, float]]:
        """Self time per layer over the descendants of each span in ``roots``.

        A span's self time is its duration minus the part of it that its
        direct children cover.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        out = []
        for root in roots:
            totals: dict[str, float] = defaultdict(float)
            pending = list(children[root])
            while pending:
                index = pending.pop()
                name, start, end, _ = self.spans[index]
                kids = sorted((self.spans[c][1], self.spans[c][2]) for c in children[index])
                totals[name.split(".", 1)[0]] += (end - start) - _covered(kids)
                pending.extend(children[index])
            out.append(dict(totals))
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of sorted intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
