"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` accumulates whatever the instrumented code
feeds it — chunk counts, per-device iteration totals, retries,
quarantines, scheduler decision latencies.  The registry
itself never consults the wall clock or any RNG: identical runs produce
identical snapshots, byte for byte, which is what lets traced benchmark
runs stay reproducible.

Histogram bucket boundaries are fixed at first registration of a metric
name (never derived from observed data), so two runs that observe the
same values always land them in the same buckets.

A registry is safe to share across threads: the get-or-create lookups,
the mutation shorthands (:meth:`MetricsRegistry.inc`,
:meth:`~MetricsRegistry.set_gauge`, :meth:`~MetricsRegistry.observe`) and
:meth:`~MetricsRegistry.snapshot` hold one registry-wide lock — concurrent
threads can feed one shared registry without lost increments.
Mutating a :class:`Counter`/:class:`Gauge`/:class:`Histogram` object
*returned* by the registry is not synchronised; concurrent writers must
go through the registry shorthands.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Seconds-scale latency buckets (scheduler decisions, stage durations).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Iteration-count buckets (chunk sizes).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    labels: _LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down."""

    name: str
    labels: _LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``counts[i]`` is the number of observations ``<= buckets[i]``
    (non-cumulative storage; the exporter cumulates).
    """

    name: str
    buckets: tuple[float, ...]
    labels: _LabelKey = ()
    counts: list[int] = field(default_factory=list)
    overflow: int = 0
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError(
                f"histogram {self.name}: buckets must be non-empty and sorted"
            )
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with (inf, count)."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.buckets, self.counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + self.overflow))
        return out


class MetricsRegistry:
    """Get-or-create store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        self._hist_buckets: dict[str, tuple[float, ...]] = {}
        # Reentrant: the shorthands get-or-create under the lock they hold.
        self._lock = threading.RLock()

    # -- get-or-create --------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter(name=name, labels=key[1])
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge(name=name, labels=key[1])
        return g

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        """Histogram for ``name``; bucket boundaries are pinned by the
        first registration of the name and shared by every label set."""
        key = (name, _label_key(labels))
        with self._lock:
            fixed = self._hist_buckets.get(name)
            if fixed is None:
                fixed = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
                self._hist_buckets[name] = fixed
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram(
                    name=name, buckets=fixed, labels=key[1]
                )
        return h

    # -- shorthands ------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        with self._lock:
            self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self.gauge(name, **labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> None:
        with self._lock:
            self.histogram(name, buckets=buckets, **labels).observe(value)

    # -- introspection ---------------------------------------------------------

    def counters(self) -> Iterator[Counter]:
        for key in sorted(self._counters):
            yield self._counters[key]

    def gauges(self) -> Iterator[Gauge]:
        for key in sorted(self._gauges):
            yield self._gauges[key]

    def histograms(self) -> Iterator[Histogram]:
        for key in sorted(self._histograms):
            yield self._histograms[key]

    def counter_value(self, name: str, **labels: Any) -> float:
        c = self._counters.get((name, _label_key(labels)))
        return c.value if c is not None else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Deterministic (sorted) plain-dict view of every metric."""
        with self._lock:
            return {
                "counters": {
                    _flat_name(c.name, c.labels): c.value
                    for c in self.counters()
                },
                "gauges": {
                    _flat_name(g.name, g.labels): g.value
                    for g in self.gauges()
                },
                "histograms": {
                    _flat_name(h.name, h.labels): {
                        "sum": h.total,
                        "count": h.count,
                        "buckets": h.cumulative(),
                    }
                    for h in self.histograms()
                },
            }


def _flat_name(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"
