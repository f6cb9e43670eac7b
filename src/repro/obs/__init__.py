"""Observability subsystem: span tracing, metrics, trace exporters.

Fig. 6 of the paper is an observability claim — per-device breakdowns of
scheduling, data movement, compute and barrier time explain why each
algorithm balances or fails.  ``repro.obs`` turns that from an aggregated
after-the-fact table into a first-class runtime layer:

* :class:`~repro.obs.tracer.Tracer` collects typed
  :class:`~repro.obs.span.Span` records (offload → device → chunk →
  sched/xfer_in/compute/xfer_out/retry/fault) in the engine's virtual
  time;
* :class:`~repro.obs.metrics.MetricsRegistry` accumulates deterministic
  counters, gauges and fixed-bucket histograms (chunks, iterations,
  retries, quarantines, scheduler decision latencies);
* :mod:`~repro.obs.export` renders Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), JSONL span streams and Prometheus text.

Fig. 6 itself is computed once, by
:meth:`~repro.engine.trace.OffloadResult.breakdown_pct` and
:meth:`~repro.engine.trace.OffloadResult.imbalance_pct` over
:class:`~repro.engine.trace.DeviceTrace` buckets; the span stream carries
enough to rebuild those buckets to 1e-9, which
``tests/obs/test_equivalence.py`` pins.

Disabled (the default — no tracer attached), the
engines pay one attribute check per offload and results are bit-identical
to a build without the subsystem.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    metrics_to_prom,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prom,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.span import Span
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    resolve_tracer,
)

__all__ = [
    # span / tracer
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # export
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "metrics_to_prom",
    "write_prom",
]
