"""Typed fault events: what the engine records when a fault fires.

Every fault occurrence during an offload produces one :class:`ChunkFault`,
which ends up in the run's :class:`~repro.engine.events.Timeline` (and,
summarised, in ``OffloadResult.meta``).  With ``record_events=True`` the
per-chunk :class:`~repro.engine.events.ChunkEvent` records additionally
carry a ``status``/``retries`` pair, so a faulted timeline shows exactly
where time was lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.ranges import IterRange

__all__ = ["FaultKind", "ChunkFault"]


class FaultKind(str, Enum):
    """What kind of fault fired."""

    RETRY = "retry"                  # a transfer attempt failed, retrying
    TRANSFER_FAIL = "transfer-fail"  # retries exhausted, chunk abandoned
    DROPOUT = "dropout"              # device permanently lost (planned)
    QUARANTINE = "quarantine"        # health tracker excluded the device


@dataclass(frozen=True)
class ChunkFault:
    """One fault occurrence, pinned to virtual time (and chunk, if any)."""

    kind: FaultKind
    devid: int
    device_name: str
    t: float
    chunk: IterRange | None = None
    stage: str = ""   # "in" / "out" for transfer faults, else ""
    detail: str = ""
