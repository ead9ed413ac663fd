"""repro.obs — stdlib-only observability for the whole estimation stack.

Three pieces, one import:

* **Metrics** (:mod:`repro.obs.metrics`) — :class:`MetricsRegistry` with
  lock-protected :class:`Counter`/:class:`Gauge`/:class:`Histogram` families
  (labels supported), a picklable ``snapshot()``/``merge()`` round-trip for
  shipping worker-process counters home, and Prometheus text exposition
  (``render()`` / :func:`render_metrics`) behind the service's
  ``GET /metrics``.  Hot-path instrumentation is gated on
  :func:`metrics_enabled` (``$REPRO_METRICS=1`` or :func:`enable_metrics`).
* **Tracing** (:mod:`repro.obs.trace`) — the :func:`span` context manager
  builds nested monotonic-clock span trees across the facade, the drivers,
  the kernel batch loops, the store and the session layer; finished trees
  append as JSONL to ``$REPRO_TRACE`` and summarize into
  ``BetweennessResult.extra["trace"]``.  Off by default; disabled spans are
  a shared no-op singleton.
* **Exposition** — the query service serves ``GET /metrics``
  (``docs/serving.md``) and ``repro-betweenness obs`` pretty-prints traces
  (``docs/observability.md``).

The package imports only the standard library, so any layer — including
modules imported during ``repro`` package initialization — can instrument
itself without import cycles.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    render_metrics,
)
from repro.obs.trace import (
    NOOP_SPAN,
    PhaseRecorder,
    Span,
    current_span,
    disable_tracing,
    enable_tracing,
    span,
    trace_path,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PhaseRecorder",
    "Span",
    "current_span",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "get_registry",
    "metrics_enabled",
    "render_metrics",
    "span",
    "trace_path",
    "tracing_enabled",
]
