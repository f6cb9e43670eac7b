"""Per-chunk event records: the simulator's observable timeline.

When the engine runs with ``record_events=True`` it emits one
:class:`ChunkEvent` per executed chunk with the exact virtual-time spans
of its pipeline stages (acquisition, copy-in, compute, copy-out).  This is
what the overlap tests assert on and what the timeline renderer draws —
the paper's Fig. 4 stages, made visible.

Under an active fault plan (:mod:`repro.faults`) the timeline also carries
:class:`~repro.faults.events.ChunkFault` records, and chunk events that
did not complete are marked by ``status`` (``"failed"`` — transfer retries
exhausted; ``"dropped"`` — the device died mid-chunk) with their spans
clipped to the time the device actually spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.events import ChunkFault, FaultKind
from repro.util.ranges import IterRange

__all__ = ["ChunkEvent", "Timeline", "render_timeline"]


@dataclass(frozen=True)
class ChunkEvent:
    """One chunk's journey through a device's pipeline (times in seconds)."""

    devid: int
    device_name: str
    chunk: IterRange
    acquire_t: float       # when the proxy popped the shared cursor
    in_start: float
    in_end: float
    comp_start: float
    comp_end: float
    out_start: float
    out_end: float
    status: str = "ok"     # "ok" | "failed" (retries exhausted) | "dropped"
    retries: int = 0       # transfer retries survived by this chunk

    @property
    def spans(self) -> dict[str, tuple[float, float]]:
        return {
            "in": (self.in_start, self.in_end),
            "comp": (self.comp_start, self.comp_end),
            "out": (self.out_start, self.out_end),
        }


@dataclass
class Timeline:
    """All chunk events of one offload, ordered by acquisition time."""

    events: list[ChunkEvent]
    faults: list[ChunkFault] = field(default_factory=list)

    def for_device(self, devid: int) -> list[ChunkEvent]:
        return [e for e in self.events if e.devid == devid]

    def faults_for_device(self, devid: int) -> list[ChunkFault]:
        return [f for f in self.faults if f.devid == devid]

    def makespan(self) -> float:
        return max((e.out_end for e in self.events), default=0.0)

    def device_overlap_fraction(self, devid: int) -> float:
        """Fraction of a device's transfer time hidden under its compute."""
        evs = self.for_device(devid)
        total_xfer = sum((e.in_end - e.in_start) + (e.out_end - e.out_start) for e in evs)
        if total_xfer == 0.0:
            return 0.0
        comp_spans = [(e.comp_start, e.comp_end) for e in evs]
        hidden = 0.0
        for e in evs:
            for a, b in ((e.in_start, e.in_end), (e.out_start, e.out_end)):
                for c0, c1 in comp_spans:
                    lo, hi = max(a, c0), min(b, c1)
                    if hi > lo:
                        hidden += hi - lo
        return min(1.0, hidden / total_xfer)


#: One-character lane marks for fault kinds (render_timeline's legend).
_FAULT_MARKS = {
    FaultKind.RETRY: "r",
    FaultKind.TRANSFER_FAIL: "x",
    FaultKind.DROPOUT: "D",
    FaultKind.QUARANTINE: "Q",
}


def render_timeline(timeline: Timeline, *, width: int = 72) -> str:
    """ASCII Gantt chart: one row per device per pipeline stage.

    ``i``/``c``/``o`` mark copy-in, compute and copy-out activity; seeing
    ``i`` columns under ``c`` columns of the same device *is* the
    transfer/compute overlap the paper credits SCHED_DYNAMIC with.

    When the timeline carries fault records, each affected device gains a
    fourth ``flt`` lane marking where its faults fired: ``r`` retry,
    ``x`` transfer failure (retries exhausted), ``D`` dropout,
    ``Q`` quarantine.
    """
    if not timeline.events:
        return "(empty timeline)"
    span = timeline.makespan()
    if span <= 0:
        return "(zero-length timeline)"
    scale = width / span
    devids = sorted(
        {e.devid for e in timeline.events} | {f.devid for f in timeline.faults}
    )
    lines = [f"timeline: {span * 1e3:.3f} ms total, {width} cols"]
    names = {e.devid: e.device_name for e in timeline.events}
    names.update({f.devid: f.device_name for f in timeline.faults})
    for d in devids:
        evs = timeline.for_device(d)
        name = names[d]
        rows = {"in": [" "] * width, "comp": [" "] * width, "out": [" "] * width}
        marks = {"in": "i", "comp": "c", "out": "o"}
        for e in evs:
            for stage, (a, b) in e.spans.items():
                if b <= a:
                    continue
                lo = min(width - 1, int(a * scale))
                hi = min(width, max(lo + 1, int(b * scale)))
                for x in range(lo, hi):
                    rows[stage][x] = marks[stage]
        lines.append(f"{name:>10s} in   |{''.join(rows['in'])}|")
        lines.append(f"{'':>10s} comp |{''.join(rows['comp'])}|")
        lines.append(f"{'':>10s} out  |{''.join(rows['out'])}|")
        dev_faults = timeline.faults_for_device(d)
        if dev_faults:
            lane = [" "] * width
            for f in dev_faults:
                x = min(width - 1, int(f.t * scale))
                mark = _FAULT_MARKS[f.kind]
                # Terminal faults (D/Q) outrank retries sharing a column.
                if lane[x] == " " or mark in ("D", "Q"):
                    lane[x] = mark
            lines.append(f"{'':>10s} flt  |{''.join(lane)}|")
    if timeline.faults:
        lines.append(
            f"faults: {len(timeline.faults)} "
            "(r=retry x=transfer-fail D=dropout Q=quarantine)"
        )
    return "\n".join(lines)
