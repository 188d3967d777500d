"""Metrics registry: counters, gauges, histograms (system S25).

The registry is the single vocabulary every instrumented layer reports
into: counters accumulate event counts (DISC comparisons, Lemma 2.1
hits), gauges record point-in-time values, histograms bucket magnitudes
(partition sizes, pruned-interval widths) against fixed boundaries.

Metrics may carry labels (``registry.counter("disc.comparisons", k=4)``)
so the same event can be split by phase without inventing new names; a
labelled metric is a distinct time series keyed by ``(name, labels)``.

Every class has a no-op twin whose mutators do nothing and whose
instances are shared singletons, so the uninstrumented hot path pays one
method call per event and allocates nothing — see
:class:`NoopMetricsRegistry`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Iterator

#: A label set in canonical form: sorted ``(key, value)`` pairs.
LabelItems = tuple[tuple[str, object], ...]

#: Default histogram bucket boundaries (upper-inclusive, plus overflow).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
)


def _label_items(labels: dict[str, object]) -> LabelItems:
    """Canonical (sorted) form of a label mapping."""
    return tuple(sorted(labels.items()))


def render_name(name: str, labels: LabelItems) -> str:
    """``name{k=4}`` rendering used by snapshots and reports."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter by *amount*."""
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A point-in-time value (last write wins; extremes tracked)."""

    __slots__ = ("name", "labels", "value", "maximum")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.maximum = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "max": self.maximum,
        }


class Histogram:
    """A distribution bucketed against fixed upper boundaries.

    A value lands in the first bucket whose boundary is >= the value;
    values above the last boundary land in the overflow bucket.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "total", "minimum", "maximum")

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        labels: LabelItems = (),
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be sorted and unique: {bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def record(self, value: float) -> None:
        """Account one observation of *value*."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def buckets(self) -> dict[str, int]:
        """Bucket counts keyed by their rendered upper boundary."""
        keys = [f"<={bound:g}" for bound in self.bounds] + ["+Inf"]
        return dict(zip(keys, self.bucket_counts))

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": self.buckets(),
        }


#: Anything the registry hands out.
Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of named (optionally labelled) metrics.

    The registry is shared across the service's worker and HTTP threads,
    so the get-or-create table is lock-protected: without it two threads
    racing on a first ``counter(name)`` call each build their own handle
    and one of the two loses every increment it ever records.  Handle
    mutators (``Counter.add`` etc.) stay lock-free by design — the hot
    loop only ever touches pre-fetched handles.
    """

    __slots__ = ("_lock", "_metrics")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelItems], Metric] = {}  # guarded-by: _lock

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter registered under ``(name, labels)``."""
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Counter(name, key[1])
                self._metrics[key] = metric
        if not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge registered under ``(name, labels)``."""
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Gauge(name, key[1])
                self._metrics[key] = metric
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram registered under ``(name, labels)``."""
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Histogram(name, bounds, key[1])
                self._metrics[key] = metric
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        yield from metrics

    def counter_total(self, name: str) -> int:
        """Sum of all counters named *name*, across every label set."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sum(
            metric.value
            for metric in metrics
            if isinstance(metric, Counter) and metric.name == name
        )

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All metrics as plain data, keyed by rendered name."""
        with self._lock:
            entries = list(self._metrics.items())
        return {
            render_name(name, labels): metric.snapshot()
            for (name, labels), metric in sorted(
                entries, key=lambda kv: (kv[0][0], str(kv[0][1]))
            )
        }


class _NoopCounter(Counter):
    """Shared counter that records nothing."""

    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        return None


class _NoopGauge(Gauge):
    """Shared gauge that records nothing."""

    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NoopHistogram(Histogram):
    """Shared histogram that records nothing."""

    __slots__ = ()

    def record(self, value: float) -> None:
        return None


_NOOP_COUNTER = _NoopCounter("noop")
_NOOP_GAUGE = _NoopGauge("noop")
_NOOP_HISTOGRAM = _NoopHistogram("noop")


class FilteredMetricsRegistry(MetricsRegistry):
    """Registry that materialises only a fixed set of counter names.

    Counters outside the set — and every gauge and histogram — are the
    shared no-op singletons.  This keeps an always-on read-out (e.g.
    ``DiscAllStats``) exact without paying for the full instrumentation
    vocabulary when nobody asked to observe.
    """

    __slots__ = ("_names",)

    def __init__(self, names: Iterable[str]) -> None:
        super().__init__()
        self._names = frozenset(names)

    def counter(self, name: str, **labels: object) -> Counter:
        if name in self._names:
            return super().counter(name, **labels)
        return _NOOP_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NOOP_GAUGE

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return _NOOP_HISTOGRAM


class NoopMetricsRegistry(MetricsRegistry):
    """Registry whose metrics are shared do-nothing singletons.

    Every accessor returns a pre-built instance, so instrumented code
    can fetch handles and call them unconditionally without allocating
    on the uninstrumented path.
    """

    __slots__ = ()

    def counter(self, name: str, **labels: object) -> Counter:
        return _NOOP_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NOOP_GAUGE

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return _NOOP_HISTOGRAM
