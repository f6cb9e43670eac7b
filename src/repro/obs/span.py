"""Typed spans: the unit of the observability subsystem.

A :class:`Span` is one named, categorised interval on one device's
timeline — a scheduler decision, a pipeline stage, a retry storm, a
barrier wait, or the whole offload.  Spans carry the *virtual* time of
:class:`~repro.engine.simulator.OffloadEngine`.

An *instant* is a zero-duration span (``t0 == t1``): fault occurrences,
per-chunk completion marks, device-finish marks.

Span names and categories are closed vocabularies (the constants below),
so exporters and analyses can dispatch without string guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "Span",
    "CAT_OFFLOAD",
    "CAT_SCHED",
    "CAT_STAGE",
    "CAT_FAULT",
    "CAT_MARK",
    "SPAN_SCHED",
    "SPAN_SETUP",
    "SPAN_XFER_IN",
    "SPAN_COMPUTE",
    "SPAN_XFER_OUT",
    "SPAN_RETRY",
    "SPAN_BARRIER",
    "SPAN_OFFLOAD",
    "MARK_CHUNK",
    "MARK_FINISH",
]

# -- categories ---------------------------------------------------------------
CAT_OFFLOAD = "offload"  # the run-level envelope span
CAT_SCHED = "sched"      # scheduler decisions and one-off device setup
CAT_STAGE = "stage"      # pipeline stages: xfer_in / compute / xfer_out / barrier
CAT_FAULT = "fault"      # retries and fault occurrences
CAT_MARK = "mark"        # instants: chunk completions, device finish

# -- span names ---------------------------------------------------------------
SPAN_SCHED = "sched"
SPAN_SETUP = "setup"
SPAN_XFER_IN = "xfer_in"
SPAN_COMPUTE = "compute"
SPAN_XFER_OUT = "xfer_out"
SPAN_RETRY = "retry"
SPAN_BARRIER = "barrier"
SPAN_OFFLOAD = "offload"
MARK_CHUNK = "chunk"
MARK_FINISH = "finish"


@dataclass(frozen=True, slots=True)
class Span:
    """One interval (or instant, when ``t0 == t1``) on a device timeline.

    ``devid`` is ``-1`` (and ``device`` empty) for run-level spans.
    ``args`` is a sorted tuple of key/value pairs so spans stay hashable
    and their serialised form is deterministic.
    """

    name: str
    cat: str
    devid: int
    device: str
    t0: float
    t1: float
    args: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(
                f"span {self.name!r} ends before it starts "
                f"({self.t1} < {self.t0})"
            )

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def is_instant(self) -> bool:
        return self.t1 == self.t0

    def arg(self, key: str, default: Any = None) -> Any:
        for k, v in self.args:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "devid": self.devid,
            "device": self.device,
            "t0": self.t0,
            "t1": self.t1,
            "args": dict(self.args),
        }


def freeze_args(args: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sorted, hashable form of a span's argument mapping."""
    return tuple(sorted(args.items()))
