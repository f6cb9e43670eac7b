"""Shared machinery for the two-stage sample-profiling algorithms (§IV.C).

Stage 1: every participating device computes a sample chunk and its
elapsed time is observed.  A barrier follows ("profiling information will
be broadcasted to each device").  Stage 2: the remaining iterations are
split proportionally to the measured throughputs (iterations/second,
inclusive of each device's own data-movement time), with the CUTOFF ratio
applied to the predicted contributions.

Subclasses only decide the stage-1 sample sizes.
"""

from __future__ import annotations

from abc import abstractmethod

from repro.errors import SchedulingError
from repro.sched.base import BARRIER, Decision, LoopScheduler, SchedContext
from repro.sched.cutoff import apply_cutoff
from repro.util.ranges import IterRange, split_by_weights

__all__ = ["TwoStageProfileScheduler"]


class TwoStageProfileScheduler(LoopScheduler):
    stages = 2
    supports_cutoff = True
    #: Stage-1 samples are laid out in start(); the stage-2 split depends
    #: only on each device's own observed per-chunk elapsed times, all
    #: in before the barrier — not on how the devices interleave.
    timing_oblivious = True

    def __init__(self, sample_pct: float = 0.10):
        super().__init__()
        if not 0.0 < sample_pct < 1.0:
            raise SchedulingError(f"sample_pct must be in (0, 1), got {sample_pct}")
        self.sample_pct = sample_pct

    @abstractmethod
    def _sample_sizes(self, ctx: SchedContext) -> list[int]:
        """Per-device stage-1 chunk sizes (sum must be <= n_iters)."""

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        sizes = list(self._sample_sizes(ctx))
        if len(sizes) != ctx.ndev:
            raise SchedulingError(f"{self.notation}: wrong sample-size count")
        # Degenerate loops (fewer iterations than devices): shrink samples
        # greedily so stage 1 never overruns the iteration space.
        budget = ctx.n_iters
        for i, s in enumerate(sizes):
            sizes[i] = max(0, min(s, budget))
            budget -= sizes[i]
        self._stage = 1
        self._stage1: list[IterRange | None] = []
        pos = ctx.iter_space.start
        for s in sizes:
            self._stage1.append(IterRange(pos, pos + s) if s > 0 else None)
            pos += s
        self._remaining = IterRange(pos, ctx.iter_space.stop)
        self._handed1 = [False] * ctx.ndev
        self._throughput = [0.0] * ctx.ndev
        self._stage2: list[IterRange] | None = None
        self._handed2 = [False] * ctx.ndev
        self._lost: set[int] = set()
        self._pending: list[list[IterRange]] = [[] for _ in range(ctx.ndev)]

    def next(self, devid: int) -> Decision:
        if self._stage == 1:
            if not self._handed1[devid]:
                self._handed1[devid] = True
                chunk = self._stage1[devid]
                if chunk is not None:
                    return chunk
            # sample done (or no sample assigned): wait for everyone
            return BARRIER
        if self._stage2 is None:
            raise SchedulingError(f"{self.notation}: stage 2 not planned")
        if not self._handed2[devid]:
            self._handed2[devid] = True
            chunk = self._stage2[devid]
            if not chunk.empty:
                return chunk
        if self._pending[devid]:
            return self._pending[devid].pop(0)
        return None

    def observe(self, devid: int, chunk: IterRange, elapsed_s: float) -> None:
        if self._stage != 1 or len(chunk) == 0:
            return
        if elapsed_s <= 0:
            # Degenerate measurement: treat as extremely fast rather than
            # dividing by zero.
            elapsed_s = 1e-12
        self._throughput[devid] = len(chunk) / elapsed_s

    def device_lost(self, devid: int) -> list[IterRange]:
        # A dropped/quarantined device predicts zero throughput: the
        # stage-2 split gives it nothing, like a CUTOFF exclusion that was
        # observed rather than predicted.  Its unclaimed sample or stage-2
        # block is surrendered for reassignment.
        self._lost.add(devid)
        self._throughput[devid] = 0.0
        orphaned: list[IterRange] = []
        if self._stage == 1 and not self._handed1[devid]:
            self._handed1[devid] = True
            sample = self._stage1[devid]
            if sample is not None and not sample.empty:
                orphaned.append(sample)
        if self._stage2 is not None and not self._handed2[devid]:
            self._handed2[devid] = True
            block = self._stage2[devid]
            if not block.empty:
                orphaned.append(block)
        orphaned.extend(self._pending[devid])
        self._pending[devid].clear()
        return orphaned

    def requeue(self, chunk: IterRange) -> bool:
        # Orphans are redistributed proportionally to the *measured*
        # throughputs of the devices still alive — the same information
        # stage 2 was planned with, applied to the recovery.  Stage-1
        # orphans (no throughputs yet) fall back to the engine's even
        # split.
        if self._stage != 2 or chunk.empty:
            return False
        shares = [
            0.0 if i in self._lost else x for i, x in enumerate(self._throughput)
        ]
        if sum(shares) <= 0.0:
            return False
        for i, piece in enumerate(split_by_weights(chunk, shares)):
            if not piece.empty:
                self._pending[i].append(piece)
        return True

    def at_barrier(self) -> None:
        ctx = self.ctx
        self._stage = 2
        shares = [
            0.0 if i in self._lost else x for i, x in enumerate(self._throughput)
        ]
        if sum(shares) <= 0.0:
            # Nobody was profiled (all sample sizes 0): fall back to even
            # over the devices still alive.
            shares = [
                0.0 if i in self._lost else 1.0 for i in range(ctx.ndev)
            ]
        if sum(shares) <= 0.0:  # every device lost: keep split_by_weights sane
            shares = [1.0] * ctx.ndev

        def resolve(survivors: list[int]) -> list[float]:
            return [shares[i] for i in survivors]

        shares = apply_cutoff(shares, ctx.cutoff_ratio, resolve)
        self._stage2 = split_by_weights(self._remaining, shares)

    def describe(self) -> str:
        cutoff = self.ctx.cutoff_ratio if self._ctx is not None else 0.0
        return f"{self.notation},{self.sample_pct:.0%},{cutoff:.0%}"
