"""Work-stealing loop distribution (extension; paper related work).

The paper contrasts HOMP with runtimes that "address the load balance
challenges through variants of workstealing" (StarPU, Harmony, the
multi-GPU work of Lima et al.).  This scheduler implements the classic
shape on top of the Table II machinery so it can be compared head-to-head:

* every device starts with an even BLOCK share of the iteration space
  (good locality, no central queue contention),
* a device serves itself fixed-size chunks from the *front* of its own
  range,
* when its range runs dry it steals the *back half* of the largest
  remaining victim range.

Behaviour: identical devices match BLOCK (minus the per-chunk overheads);
heterogeneous devices converge to a balanced schedule like SCHED_DYNAMIC,
but with contention proportional to the number of steals instead of the
number of chunks.
"""

from __future__ import annotations

from repro.sched.base import Decision, LoopScheduler, SchedContext
from repro.util.ranges import IterRange, split_block

__all__ = ["WorkStealingScheduler"]


class WorkStealingScheduler(LoopScheduler):
    notation = "WORK_STEALING"
    stages = -1  # multiple
    supports_cutoff = False

    def __init__(self, chunk_pct: float = 0.02, min_steal: int = 1):
        super().__init__()
        self.chunk_pct = self._fraction("chunk_pct", chunk_pct)
        self.min_steal = self._count("min_steal", min_steal)
        self.steals = 0

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        self._ranges: list[IterRange] = split_block(ctx.iter_space, ctx.ndev)
        self._chunk = max(1, round(ctx.n_iters * self.chunk_pct))
        self.steals = 0

    def _pop_own(self, devid: int) -> IterRange | None:
        own = self._ranges[devid]
        if own.empty:
            return None
        head, rest = own.take(self._chunk)
        self._ranges[devid] = rest
        return head

    def _steal(self, thief: int) -> IterRange | None:
        victim = max(
            (d for d in range(len(self._ranges)) if d != thief),
            key=lambda d: len(self._ranges[d]),
            default=None,
        )
        if victim is None or len(self._ranges[victim]) < self.min_steal:
            return None
        loot_size = max(self.min_steal, len(self._ranges[victim]) // 2)
        keep, loot = self._ranges[victim].take(
            len(self._ranges[victim]) - loot_size
        )
        self._ranges[victim] = keep
        self._ranges[thief] = loot
        self.steals += 1
        return self._pop_own(thief)

    def next(self, devid: int) -> Decision:
        chunk = self._pop_own(devid)
        if chunk is not None:
            return chunk
        return self._steal(devid)

    def describe(self) -> str:
        return f"{self.notation},{self.chunk_pct:.0%}"

