"""In-memory span recorder for the traced (per-layer) benchmark run.

The harness records a span around every call it makes into a layer of
``repro`` (name, start, end, parent span, operation id).  Spans live in a list
until the run ends and are then written as JSON lines; nothing is flushed
while a measurement is in flight.  A layer's *self time* is its span's
duration minus the part of it covered by child spans, so the self times of a
tree sum to the duration of its root.

End-to-end metrics are never taken with a :class:`Tracer` active; the traced
run reports the cost of recording as ``bench.trace_overhead_frac``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Single-threaded span recorder (the harness drives one call at a time)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._op = 0

    def new_operation(self) -> None:
        """Start a new operation; spans opened from now on share its id."""
        self._op += 1

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str, attrs: Optional[dict] = None) -> dict:
        record = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def add_child(self, parent: dict, name: str, start: float, seconds: float) -> float:
        """Record a finished child span from a duration the program reported.

        Used for phases that run inside one public call (``phase_seconds`` of a
        result): the child is laid out at ``start`` and clipped to its parent.
        Returns the child's end, i.e. the start of the next sibling.
        """
        end = min(start + max(seconds, 0.0), parent["end"])
        self.spans.append(
            {
                "id": len(self.spans),
                "op": parent["op"],
                "name": name,
                "parent": parent["id"],
                "start": start,
                "end": end,
            }
        )
        return end

    def add_phases(self, parent: dict, phase_seconds: dict) -> None:
        """The diameter / calibration / adaptive phases of a result, as child spans."""
        cursor = parent["start"]
        for phase in ("diameter", "calibration", "adaptive_sampling"):
            cursor = self.add_child(parent, f"session.{phase}", cursor, phase_seconds.get(phase, 0.0))

    @contextmanager
    def wrap_method(self, cls, method: str, name: str) -> Iterator[None]:
        """Record a span around every call of ``cls.method`` inside the block."""
        original = getattr(cls, method)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)

        setattr(cls, method, traced)
        try:
            yield
        finally:
            setattr(cls, method, original)

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus child durations)."""
        child_seconds: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_seconds[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - child_seconds[span["id"]]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
