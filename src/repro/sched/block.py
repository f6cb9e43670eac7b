"""Static chunking — the BLOCK policy (paper §IV.A.1).

One even contiguous block per device, computed upfront.  Single stage,
lowest overhead; load balance is perfect only when devices are identical
and iterations uniform.
"""

from __future__ import annotations

from repro.sched.base import PlannedScheduler, SchedContext
from repro.util.ranges import IterRange, split_block

__all__ = ["BlockScheduler"]


class BlockScheduler(PlannedScheduler):
    notation = "BLOCK"
    stages = 1
    supports_cutoff = False

    def plan(self, ctx: SchedContext) -> list[IterRange]:
        return split_block(ctx.iter_space, ctx.ndev)
