"""In-memory span recorder for the benchmark's traced pass.

A span is (name, label, start, end, parent).  ``label`` names the family
spec or flow a call worked on, so one layer can be reported in total and per
spec.  Spans are kept in a list and written out once, at the end of a run.
When the recorder is disabled, ``span`` costs one attribute test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []   # [name, label, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, label: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, label, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = time.perf_counter()

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[4] is None and s[0] == name]

    def self_times(self, roots: list[int]) -> dict[tuple, float]:
        """Self time (span minus its children) summed per (name, None) and per
        (name, label) over the given root spans and everything below them."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[4] is not None:
                children.setdefault(s[4], []).append(i)
        out: dict[tuple, float] = {}
        stack = list(roots)
        while stack:
            i = stack.pop()
            name, label, start, end, _ = self.spans[i]
            kids = children.get(i, [])
            own = (end - start) - sum(self.spans[k][3] - self.spans[k][2] for k in kids)
            for key in {(name, None), (name, label)}:
                out[key] = out.get(key, 0.0) + own
            stack.extend(kids)
        return out

    def to_doc(self) -> list[dict]:
        return [{"name": n, "label": lab, "start": a, "end": b, "parent": p}
                for n, lab, a, b, p in self.spans]
