"""Static chunking — the BLOCK policy (paper §IV.A.1).

One even contiguous block per device, computed upfront.  Single stage,
lowest overhead; load balance is perfect only when devices are identical
and iterations uniform.
"""

from __future__ import annotations

from repro.sched.base import Decision, LoopScheduler, SchedContext
from repro.util.ranges import IterRange, split_block

__all__ = ["BlockScheduler"]


class BlockScheduler(LoopScheduler):
    notation = "BLOCK"
    stages = 1
    supports_cutoff = False
    timing_oblivious = True  # split is fixed in start(); next() is static

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        self._chunks: list[IterRange] = split_block(ctx.iter_space, ctx.ndev)
        self._served = [False] * ctx.ndev

    def next(self, devid: int) -> Decision:
        if self._served[devid]:
            return None
        self._served[devid] = True
        chunk = self._chunks[devid]
        return None if chunk.empty else chunk

    def device_lost(self, devid: int) -> list[IterRange]:
        # Surrender the unclaimed static block of a dropped device.
        if self._served[devid]:
            return []
        self._served[devid] = True
        chunk = self._chunks[devid]
        return [] if chunk.empty else [chunk]
