"""Dynamic chunking — SCHED_DYNAMIC (paper §IV.A.2).

A shared cursor over the iteration space; every device that finishes a
chunk grabs the next fixed-size chunk (the paper's proxy threads use a
compare-and-swap; the engine serialises requests in virtual-time order,
which is the same linearisation).  Faster devices naturally take more
chunks.  The chunk size is the critical knob: the paper's evaluation uses
2% of the iteration space.
"""

from __future__ import annotations

from repro.sched.base import Decision, LoopScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["DynamicScheduler"]

DEFAULT_CHUNK_PCT = 0.02  # the paper's "SCHED_DYNAMIC,2%"


class DynamicScheduler(LoopScheduler):
    notation = "SCHED_DYNAMIC"
    stages = -1  # "multiple" in Table II
    supports_cutoff = False

    def __init__(self, chunk_pct: float = DEFAULT_CHUNK_PCT):
        super().__init__()
        self.chunk_pct = self._fraction("chunk_pct", chunk_pct)

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        self._cursor = ctx.iter_space.start
        self._stop = ctx.iter_space.stop
        self._chunk = max(1, round(ctx.n_iters * self.chunk_pct))
        self._requeued: list[IterRange] = []

    def next(self, devid: int) -> Decision:
        # Orphans handed back by the fault-injecting engine rejoin the
        # shared cursor's stream first, re-chunked at the configured size.
        while self._requeued:
            head, rest = self._requeued[0].take(self._chunk)
            if rest.empty:
                self._requeued.pop(0)
            else:
                self._requeued[0] = rest
            if not head.empty:
                return head
        start, stop = self._cursor, self._stop
        if start >= stop:
            return None
        if start + self._chunk < stop:
            stop = start + self._chunk
        self._cursor = stop
        return IterRange(start, stop)

    def requeue(self, chunk: IterRange) -> bool:
        if not chunk.empty:
            self._requeued.append(chunk)
        return True

    def describe(self) -> str:
        return f"{self.notation},{self.chunk_pct:.0%}"
