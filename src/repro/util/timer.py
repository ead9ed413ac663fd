"""Lightweight wall-clock timers used by the drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager


class Timer:
    """A simple start/stop wall-clock timer.

    The timer can be used either explicitly (``start`` / ``stop``) or as a
    context manager::

        with Timer() as t:
            work()
        print(t.elapsed)
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0

    def start(self) -> "Timer":
        if self._start is not None:
            # Silently restarting would discard the running segment —
            # re-entry is always a bug at the call site.
            raise RuntimeError("Timer.start() called while already running")
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before Timer.start()")
        self._elapsed += time.perf_counter() - self._start
        self._start = None
        return self._elapsed

    def reset(self) -> None:
        self._start = None
        self._elapsed = 0.0

    @property
    def running(self) -> bool:
        return self._start is not None

    @property
    def elapsed(self) -> float:
        if self._start is not None:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Mirrors the per-phase breakdown reported in Fig. 2b of the paper
    (diameter, calibration, epoch transition, barrier, reduction, stop check).
    """

    phases: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + float(seconds)

    def get(self, name: str) -> float:
        return self.phases.get(name, 0.0)

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def fractions(self) -> Dict[str, float]:
        """Return the per-phase fraction of the total accumulated time."""
        total = self.total
        if total <= 0.0:
            return {name: 0.0 for name in self.phases}
        return {name: value / total for name, value in self.phases.items()}

    def merge(self, other: "PhaseTimer") -> "PhaseTimer":
        merged = PhaseTimer(dict(self.phases))
        for name, value in other.phases.items():
            merged.add(name, value)
        return merged

    def as_dict(self) -> Dict[str, float]:
        return dict(self.phases)
