"""In-memory spans recorded from the benchmark's side of the program's API.

A span is ``[id, name, start, end, parent, count]``: recorded around a call
into a public function of ``repro`` — either an explicit ``with
tracer.span(name)`` in the benchmark, or a wrapper that :meth:`Tracer.wrap`
installs over a public callable for the length of a traced run (``src/`` is
never edited).  ``count`` is an optional work count taken at the same
boundary (requests in a batch, seeds invalidated by a write).  Spans stay in
memory and are written out once, when the run ends.  The load generator is
one thread and the router runs with one worker, so a plain stack gives each
span its parent.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    def __init__(self) -> None:
        #: ``[id, name, start, end, parent, count]`` rows; id = list index.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._wrapped: List[tuple] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        row = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self.spans.append(row)
        self._stack.append(row[0])
        row[2] = perf_counter()
        try:
            yield row
        finally:
            row[3] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until :meth:`unwrap`.

        ``count(args, result)`` optionally records a work count on the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as row:
                result = original(*args, **kwargs)
                if count is not None:
                    row[5] = count(args, result)
                return result

        self._wrapped.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _under(self, row: list, ancestor: str) -> bool:
        parent = row[4]
        while parent is not None:
            row = self.spans[parent]
            if row[1] == ancestor:
                return True
            parent = row[4]
        return False

    def select(self, name: str, under: Optional[str] = None) -> List[list]:
        """Outermost spans called ``name``, optionally only those with an ancestor ``under``.

        A span nested in a same-named span (one wrapped callable calling
        another that shares its name) is part of the outer one, not a call of
        its own.
        """
        return [
            row for row in self.spans
            if row[1] == name and not self._under(row, name) and (under is None or self._under(row, under))
        ]

    def seconds(self, name: str, under: Optional[str] = None) -> np.ndarray:
        return np.array([row[3] - row[2] for row in self.select(name, under)])

    def median_ms(self, name: str, under: Optional[str] = None) -> float:
        durations = self.seconds(name, under)
        return float(np.median(durations)) * 1e3 if len(durations) else 0.0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total minus children)."""
        child_seconds = [0.0] * len(self.spans)
        for row in self.spans:
            if row[4] is not None:
                child_seconds[row[4]] += row[3] - row[2]
        out: Dict[str, Dict[str, float]] = {}
        for row in self.spans:
            entry = out.setdefault(row[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += row[3] - row[2]
            entry["self_s"] += row[3] - row[2] - child_seconds[row[0]]
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "span_fields": ["id", "name", "start", "end", "parent", "count"],
                    "summary": self.summary(),
                    "spans": self.spans,
                },
                handle,
            )
