"""Process-wide metrics: counters, gauges and histograms with labels.

A deliberately small, stdlib-only subset of the Prometheus data model, built
for three consumers:

* **hot paths** (the kernel batch loops, the session check/draw loop) bump
  counters behind the :func:`metrics_enabled` gate so a disabled process pays
  one attribute load per batch and nothing else — ``benchmarks/bench_obs.py``
  holds the enabled path to <= 5% samples/sec overhead;
* **worker processes** (the service's local and external workers) call
  :meth:`MetricsRegistry.snapshot` after each job and write the plain-dict
  result into the job's store row, where the coordinator
  :meth:`MetricsRegistry.merge`\\ s it — counters and histograms add,
  gauges overwrite;
* **exposition** — :meth:`MetricsRegistry.render` emits the Prometheus text
  format (``# HELP``/``# TYPE``, ``_bucket{le=...}``/``_sum``/``_count``)
  that ``GET /metrics`` on the query service serves, and
  :func:`render_metrics` merges several registries into one page without
  duplicating metric families.

All mutation goes through one :class:`threading.RLock` per registry, so the
service's worker threads and its request handlers cannot lose increments to
each other (the bug the old ad-hoc ``JobManager.counters`` dict
had).
"""

from __future__ import annotations

import bisect
import os
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "metrics_enabled",
    "render_metrics",
]

#: Default histogram bucket upper bounds (seconds), mirroring the Prometheus
#: client defaults; ``+Inf`` is implicit.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_ENV_FLAG = "REPRO_METRICS"


def _env_truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() not in ("", "0", "false", "no", "off")


#: Whether hot-path instrumentation records.  Mutated only through
#: :func:`enable_metrics` / :func:`disable_metrics`; hot loops may read the
#: module attribute directly, everyone else should call
#: :func:`metrics_enabled`.
ENABLED: bool = _env_truthy(os.environ.get(_ENV_FLAG))


def metrics_enabled() -> bool:
    """Whether gated (hot-path) instrumentation currently records."""
    return ENABLED


def enable_metrics() -> None:
    """Turn gated instrumentation on (also done by ``$REPRO_METRICS=1``)."""
    global ENABLED
    ENABLED = True


def disable_metrics() -> None:
    """Turn gated instrumentation off (the default)."""
    global ENABLED
    ENABLED = False


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared family machinery: name, help text and the labelled children.

    A family with no label names *is* its only series: ``inc``/``set``/
    ``observe`` act on the default (empty-label) child directly, which is the
    common case for process-level metrics.  Labelled families hand out bound
    children via :meth:`labels`.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str], lock: threading.RLock
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} for metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._series: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._default = self._new_series()
            self._series[()] = self._default
        else:
            self._default = None

    def _new_series(self):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child series for one concrete label assignment (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._new_series()
                self._series[key] = series
        return series

    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "use .labels(...) first"
            )
        return self._default

    def clear(self) -> None:
        """Zero every series (families and label children stay registered)."""
        with self._lock:
            for series in self._series.values():
                series._reset()

    def _snapshot_series(self) -> List[List[object]]:
        with self._lock:
            return [
                [list(key), series._snapshot_value()]
                for key, series in sorted(self._series.items())
            ]


class _CounterSeries:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def _snapshot_value(self) -> float:
        return self._value

    def _merge_value(self, value) -> None:
        self._value += float(value)


class _GaugeSeries:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def _snapshot_value(self) -> float:
        return self._value

    def _merge_value(self, value) -> None:
        # Gauges are "last writer wins": a worker snapshot overwrites.
        self._value = float(value)


class _HistogramSeries:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.RLock, bounds: Tuple[float, ...]) -> None:
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # one per bound + overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def _reset(self) -> None:
        self._counts = [0] * (len(self._bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def _snapshot_value(self) -> Dict[str, object]:
        return {
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def _merge_value(self, value) -> None:
        counts = value.get("counts", [])
        if len(counts) != len(self._counts):
            raise ValueError("histogram bucket layout mismatch")
        for i, c in enumerate(counts):
            self._counts[i] += int(c)
        self._sum += float(value.get("sum", 0.0))
        self._count += int(value.get("count", 0))


class Counter(_Metric):
    """A monotonically increasing count (``..._total`` by convention)."""

    kind = "counter"

    def _new_series(self) -> _CounterSeries:
        return _CounterSeries(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Gauge(_Metric):
    """A value that can go up and down (in-flight jobs, last-seen rates)."""

    kind = "gauge"

    def _new_series(self) -> _GaugeSeries:
        return _GaugeSeries(self._lock)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Histogram(_Metric):
    """Bucketed observations (latencies); cumulative on exposition."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.bounds = bounds
        super().__init__(name, help, labelnames, lock)

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self._lock, self.bounds)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def sum(self) -> float:
        return self._require_default().sum

    @property
    def count(self) -> int:
        return self._require_default().count


class MetricsRegistry:
    """A named collection of metric families behind one lock.

    ``counter``/``gauge``/``histogram`` are get-or-create and idempotent —
    re-registering the same name with the same type returns the existing
    family (so module-level handles survive :meth:`clear`), while a type
    conflict raises.  :meth:`snapshot` returns a plain, picklable dict that
    :meth:`merge` on any other registry consumes; that round-trip is how
    worker processes ship their counters home.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=tuple(buckets)
        )

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def clear(self) -> None:
        """Zero every series in every family (handles stay valid)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.clear()

    # ------------------------------------------------------------------ #
    # Snapshot / merge (the worker -> parent transport)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, dict]:
        """All families and series as a plain JSON/pickle-safe dict."""
        with self._lock:
            out: Dict[str, dict] = {}
            for name, metric in self._metrics.items():
                entry: Dict[str, object] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "series": metric._snapshot_series(),
                }
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.bounds)
                out[name] = entry
            return out

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges overwrite."""
        for name, entry in snapshot.items():
            kind = entry.get("type")
            labelnames = tuple(entry.get("labelnames", ()))
            help = str(entry.get("help", ""))
            if kind == "counter":
                metric = self.counter(name, help, labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, help, labelnames)
            elif kind == "histogram":
                metric = self.histogram(
                    name, help, labelnames, buckets=entry.get("buckets", DEFAULT_BUCKETS)
                )
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            for labelvalues, value in entry.get("series", []):
                key = tuple(str(v) for v in labelvalues)
                if metric.labelnames:
                    series = metric.labels(**dict(zip(metric.labelnames, key)))
                else:
                    series = metric._require_default()
                with self._lock:
                    series._merge_value(value)

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for labelvalues, value in metric._snapshot_series():
                    key = tuple(str(v) for v in labelvalues)
                    if isinstance(metric, Histogram):
                        cumulative = 0
                        counts = value["counts"]
                        for bound, count in zip(metric.bounds, counts):
                            cumulative += count
                            labels = _format_labels(
                                (*metric.labelnames, "le"),
                                (*key, _format_value(bound)),
                            )
                            lines.append(f"{name}_bucket{labels} {cumulative}")
                        cumulative += counts[-1]
                        labels = _format_labels(
                            (*metric.labelnames, "le"), (*key, "+Inf")
                        )
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                        plain = _format_labels(metric.labelnames, key)
                        lines.append(f"{name}_sum{plain} {_format_value(value['sum'])}")
                        lines.append(f"{name}_count{plain} {value['count']}")
                    else:
                        labels = _format_labels(metric.labelnames, key)
                        lines.append(f"{name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"


#: The process-global registry; hot-path instrumentation and anything that
#: has no better home records here.
REGISTRY = MetricsRegistry()

# A fork while another thread is inside the registry would leave the lock
# held forever in the child; taking it across the fork rules that out.
os.register_at_fork(
    before=REGISTRY._lock.acquire,
    after_in_parent=REGISTRY._lock.release,
    after_in_child=REGISTRY._lock.release,
)


def get_registry() -> MetricsRegistry:
    """The process-global :data:`REGISTRY`."""
    return REGISTRY


def render_metrics(*registries: MetricsRegistry) -> str:
    """Render several registries as one exposition page.

    Snapshots are merged into a scratch registry first, so a family present
    in more than one input (e.g. the service's per-manager registry and the
    process-global one) is emitted once with summed series instead of as
    duplicate ``# TYPE`` blocks — which Prometheus parsers reject.
    """
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry.snapshot())
    return merged.render()
