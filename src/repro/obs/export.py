"""Exporters: Chrome trace-event JSON, JSONL spans, Prometheus text.

The Chrome trace export follows the Trace Event Format's complete-event
(``"ph": "X"``) and instant-event (``"ph": "i"``) shapes, loadable
directly in Perfetto or ``chrome://tracing``:

* one **pid per device** (pid = devid + 1; pid 0 is the run-level
  "offload" process), named via ``process_name`` metadata events;
* one tid per pipeline lane (sched / xfer_in / compute / xfer_out /
  faults), named via ``thread_name`` metadata;
* fault and retry spans are colour-tagged (``cname``) so a faulted run
  shows its retry storms and losses at a glance.

Timestamps are microseconds of virtual time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import (
    CAT_FAULT,
    SPAN_BARRIER,
    SPAN_COMPUTE,
    SPAN_RETRY,
    SPAN_SCHED,
    SPAN_SETUP,
    SPAN_XFER_IN,
    SPAN_XFER_OUT,
    Span,
)
from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "metrics_to_prom",
    "write_prom",
]

#: tid lanes within each device process.
_LANES: dict[str, tuple[int, str]] = {
    SPAN_SCHED: (0, "sched"),
    SPAN_SETUP: (0, "sched"),
    SPAN_XFER_IN: (1, "xfer_in"),
    SPAN_COMPUTE: (2, "compute"),
    SPAN_XFER_OUT: (3, "xfer_out"),
    SPAN_BARRIER: (2, "compute"),  # barrier idles the compute lane
}
_FAULT_LANE = (4, "faults")

#: Chrome trace reserved colour names for the fault category.
_FAULT_COLORS = {
    SPAN_RETRY: "bad",
    "fault:retry": "bad",
    "fault:transfer-fail": "terrible",
    "fault:dropout": "terrible",
    "fault:quarantine": "terrible",
}


def _pid(span: Span) -> int:
    return span.devid + 1 if span.devid >= 0 else 0


def _lane(span: Span) -> tuple[int, str]:
    if span.cat == CAT_FAULT:
        return _FAULT_LANE
    return _LANES.get(span.name, (5, "misc"))


def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """The ``traceEvents`` array: metadata + one event per span."""
    events: list[dict[str, Any]] = []

    # Process metadata: pid 0 = the offload envelope, pid devid+1 = device.
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "offload"},
        }
    )
    seen_lanes: set[tuple[int, int]] = set()
    for devid, name in sorted(tracer.device_names().items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": devid + 1,
                "tid": 0,
                "args": {"name": f"dev{devid}:{name}"},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": devid + 1,
                "tid": 0,
                "args": {"sort_index": devid + 1},
            }
        )

    for span in tracer.spans:
        pid = _pid(span)
        tid, lane_name = _lane(span) if span.devid >= 0 else (0, "offload")
        if (pid, tid) not in seen_lanes:
            seen_lanes.add((pid, tid))
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane_name},
                }
            )
        ev: dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "pid": pid,
            "tid": tid,
            "ts": span.t0 * 1e6,
            "args": dict(span.args),
        }
        if span.is_instant:
            ev["ph"] = "i"
            ev["s"] = "t"  # thread-scoped instant
        else:
            ev["ph"] = "X"
            ev["dur"] = span.duration * 1e6
        cname = _FAULT_COLORS.get(span.name)
        if cname is None and span.cat == CAT_FAULT:
            cname = "bad"
        if cname is not None:
            ev["cname"] = cname
        events.append(ev)
    return events


def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Full Chrome trace JSON object (``traceEvents`` + metadata)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", **tracer.meta},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(tracer), sort_keys=True))
    return path


def to_jsonl(tracer: Tracer) -> str:
    """One JSON object per span, in emission order."""
    lines = [json.dumps(s.to_dict(), sort_keys=True) for s in tracer.spans]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_jsonl(tracer))
    return path


def _prom_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{{{inner}}}"


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def metrics_to_prom(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every metric, deterministically ordered."""
    out: list[str] = []
    seen_types: set[str] = set()

    for c in registry.counters():
        if c.name not in seen_types:
            seen_types.add(c.name)
            out.append(f"# TYPE {c.name} counter")
        out.append(f"{c.name}{_prom_labels(c.labels)} {_fmt(c.value)}")

    for g in registry.gauges():
        if g.name not in seen_types:
            seen_types.add(g.name)
            out.append(f"# TYPE {g.name} gauge")
        out.append(f"{g.name}{_prom_labels(g.labels)} {_fmt(g.value)}")

    for h in registry.histograms():
        if h.name not in seen_types:
            seen_types.add(h.name)
            out.append(f"# TYPE {h.name} histogram")
        base = dict(h.labels)
        for bound, cum in h.cumulative():
            le = "+Inf" if bound == float("inf") else _fmt(bound)
            labels = _prom_labels(
                tuple(sorted({**base, "le": le}.items()))
            )
            out.append(f"{h.name}_bucket{labels} {cum}")
        out.append(f"{h.name}_sum{_prom_labels(h.labels)} {_fmt(h.total)}")
        out.append(f"{h.name}_count{_prom_labels(h.labels)} {h.count}")

    return "\n".join(out) + ("\n" if out else "")


def write_prom(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_to_prom(registry))
    return path
