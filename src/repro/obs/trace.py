"""Phase tracing: nested, monotonic-clock span trees with JSONL export.

A :class:`Span` is a context manager timing one phase of a run; spans nest
through a thread-local stack, so the facade's root ``estimate`` span collects
the session's ``diameter``/``calibration``/``adaptive_sampling`` children
(and the epoch loop's ``sampling`` ... ``check`` grandchildren) without any
explicit plumbing.  A :class:`PhaseRecorder` is how the drivers time a
phase: one call adds the phase's seconds to their ``phase_seconds`` and
opens the span of the same name.  When the outermost span of a thread
closes, the finished tree is flushed to every registered sink — by default
one ``json.dumps`` line per tree appended to the ``$REPRO_TRACE`` path,
which is how a whole run becomes a greppable JSONL trace file.

Tracing is **off by default** and :func:`span` then returns a shared no-op
singleton: the disabled cost of an instrumentation point is one attribute
load, one call and a ``with`` enter/exit on an empty object
(``benchmarks/bench_obs.py`` keeps the instrumented hot paths honest).  The
no-op span is falsy, so callers can gate follow-up work on ``if sp:`` —
e.g. the facade only attaches ``result.extra["trace"]`` when a real span
tree was recorded.

Durations use :func:`time.perf_counter` (monotonic, high resolution);
``start_unix`` is wall-clock and only for correlating trees across
processes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "PhaseRecorder",
    "Span",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "span",
    "summarize",
    "trace_path",
    "tracing_enabled",
]

_ENV_TRACE = "REPRO_TRACE"

_local = threading.local()
_flush_lock = threading.Lock()

_enabled: bool = False
_path: Optional[str] = None
_sinks: List[Callable[[dict], None]] = []


def _stack() -> List["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class Span:
    """One timed phase; nests under whatever span is open on this thread."""

    __slots__ = ("name", "attrs", "children", "seconds", "start_unix", "_t0")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = str(name)
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List[Span] = []
        self.seconds: float = 0.0
        self.start_unix: float = 0.0
        self._t0: Optional[float] = None

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-serializable values only)."""
        self.attrs[str(key)] = value

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self.start_unix = time.time()
        _stack().append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - (self._t0 or 0.0)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            _flush_root(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, seconds={self.seconds:.6f}, "
            f"children={len(self.children)})"
        )

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """The span tree as a plain JSON-serializable dict."""
        out: Dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.seconds, 9),
            "start_unix": self.start_unix,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def summary(self) -> dict:
        """:func:`summarize` of the tree rooted here."""
        return summarize(self.as_dict())


def summarize(tree: dict) -> dict:
    """A flat per-phase time breakdown of one span-tree dict.

    ``phases`` maps dotted paths (relative to the root, e.g.
    ``"session.run.diameter"``) to accumulated seconds — repeated spans on
    the same path add up, so a loop of ``check`` spans becomes one aggregate
    entry.  This is what the facade stores in ``result.extra["trace"]`` and
    what ``repro-betweenness obs`` pretty-prints; it tolerates trees read
    back from a trace file (missing keys, non-dict children).
    """
    phases: Dict[str, float] = {}
    count = 1

    def walk(node: dict, prefix: str) -> None:
        nonlocal count
        for child in node.get("children", ()):
            if not isinstance(child, dict):
                continue
            name = str(child.get("name", "?"))
            path = f"{prefix}.{name}" if prefix else name
            phases[path] = phases.get(path, 0.0) + float(child.get("seconds", 0.0))
            count += 1
            walk(child, path)

    walk(tree, "")
    return {
        "name": str(tree.get("name", "?")),
        "seconds": round(float(tree.get("seconds", 0.0)), 9),
        "num_spans": count,
        "phases": {path: round(s, 9) for path, s in phases.items()},
    }


class _NoopSpan:
    """The shared disabled span: every operation is free and it is falsy."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def as_dict(self) -> dict:
        return {}

    def summary(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any):
    """Open a span named ``name`` (a no-op singleton when tracing is off)."""
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


class PhaseRecorder:
    """Wall-clock seconds per named phase, each phase also traced as a span.

    ``with phases("name", **attrs) as sp:`` adds the block's elapsed seconds
    to ``phases.seconds["name"]`` (repeated phases add up) and opens
    :func:`span` ``("name", **attrs)``, so ``sp`` is :data:`NOOP_SPAN` when
    tracing is off.  ``seconds`` becomes a run's ``phase_seconds``: every
    phase it names is a span of the same name in the run's trace.
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str, **attrs: Any) -> Iterator[Any]:
        start = time.perf_counter()
        try:
            with span(name, **attrs) as sp:
                yield sp
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


def current_span():
    """The innermost open :class:`Span` on this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


def _reset_after_fork() -> None:
    """Give a forked child its own tracing state.

    The child is a copy of the forking thread, open spans included; they
    close in the parent, so spans the child opens under them would never be
    flushed.  Another thread may also have held the flush lock at the fork.
    """
    global _flush_lock
    _local.stack = []
    _flush_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)


def tracing_enabled() -> bool:
    return _enabled


def trace_path() -> Optional[str]:
    """The JSONL file finished trees append to, or ``None``."""
    return _path


def enable_tracing(
    path: Optional[str] = None, sink: Optional[Callable[[dict], None]] = None
) -> None:
    """Turn tracing on; ``path`` appends JSONL trees, ``sink`` receives dicts.

    Both outputs are optional and additive: with neither, spans still record
    (useful for :meth:`Span.summary` via the facade) but nothing is written.
    Calling again replaces ``path`` (when given) and adds ``sink``.
    """
    global _enabled, _path
    _enabled = True
    if path is not None:
        _path = str(path)
    if sink is not None:
        _sinks.append(sink)


def disable_tracing() -> None:
    """Turn tracing off and drop the configured path and sinks."""
    global _enabled, _path
    _enabled = False
    _path = None
    _sinks.clear()


def _flush_root(root: Span) -> None:
    """Write one finished root tree to every sink (best-effort, never raises)."""
    payload = root.as_dict()
    path = _path
    if path is not None:
        try:
            line = json.dumps(payload, sort_keys=True, default=str)
            with _flush_lock, open(path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except (OSError, TypeError, ValueError):
            pass
    for sink in list(_sinks):
        try:
            sink(payload)
        except Exception:  # noqa: BLE001 - sinks must not break the traced run
            pass


# $REPRO_TRACE=<path> turns tracing on at import, so any entry point (CLI,
# service worker, pytest) traces without code changes.
_env_path = os.environ.get(_ENV_TRACE, "").strip()
if _env_path:
    enable_tracing(_env_path)
del _env_path
