"""Shared machinery for the two-stage sample-profiling algorithms (§IV.C).

Stage 1: every participating device computes a sample chunk and its
elapsed time is observed.  A barrier follows ("profiling information will
be broadcasted to each device").  Stage 2: the remaining iterations are
split proportionally to the measured throughputs (iterations/second,
inclusive of each device's own data-movement time), with the CUTOFF ratio
applied to the predicted contributions.

Subclasses only decide the stage-1 sample sizes.  Both stages are plans on
the :class:`~repro.sched.base.PlannedScheduler` queue: the samples are the
first, ``at_barrier`` appends the second, ``requeue`` appends to it.
"""

from __future__ import annotations

from abc import abstractmethod

from repro.errors import SchedulingError
from repro.sched.base import BARRIER, Decision, PlannedScheduler, SchedContext
from repro.util.ranges import IterRange, split_by_weights

__all__ = ["TwoStageProfileScheduler"]


class TwoStageProfileScheduler(PlannedScheduler):
    # Timing-oblivious like every planned scheduler: the stage-2 split
    # depends only on each device's own observed per-chunk elapsed times,
    # all in before the barrier — not on how the devices interleave.
    stages = 2
    supports_cutoff = True

    def __init__(self, sample_pct: float = 0.10):
        super().__init__()
        if not 0.0 < sample_pct < 1.0:
            raise SchedulingError(f"sample_pct must be in (0, 1), got {sample_pct}")
        self.sample_pct = sample_pct

    @abstractmethod
    def _sample_sizes(self, ctx: SchedContext) -> list[int]:
        """Per-device stage-1 chunk sizes (sum must be <= n_iters)."""

    def plan(self, ctx: SchedContext) -> list[IterRange]:
        sizes = self._sample_sizes(ctx)
        if len(sizes) != ctx.ndev:
            raise SchedulingError(f"{self.notation}: wrong sample-size count")
        self._stage = 1
        self._throughput = [0.0] * ctx.ndev
        self._lost: set[int] = set()
        # Degenerate loops (fewer iterations than devices): ``take`` clamps,
        # shrinking samples greedily so stage 1 never overruns the loop.
        samples: list[IterRange] = []
        self._remaining = ctx.iter_space
        for size in sizes:
            sample, self._remaining = self._remaining.take(size)
            samples.append(sample)
        return samples

    def next(self, devid: int) -> Decision:
        decision = super().next(devid)
        if decision is None and self._stage == 1:
            # sample done (or no sample assigned): wait for everyone
            return BARRIER
        return decision

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
        return super().device_lost(devid)

    def requeue(self, chunk: IterRange) -> bool:
        # Orphans are redistributed proportionally to the *measured*
        # throughputs of the devices still alive — the same information
        # stage 2 was planned with, applied to the recovery.  Stage-1
        # orphans (no throughputs yet) fall back to the engine's even
        # split.
        if self._stage != 2 or chunk.empty:
            return False
        shares = self._alive_throughputs()
        if sum(shares) <= 0.0:
            return False
        self._hand(split_by_weights(chunk, shares))
        return True

    def _alive_throughputs(self) -> list[float]:
        return [
            0.0 if i in self._lost else x for i, x in enumerate(self._throughput)
        ]

    def at_barrier(self) -> None:
        ctx = self.ctx
        self._stage = 2
        shares = self._alive_throughputs()
        if sum(shares) <= 0.0:
            # Nobody was profiled (all sample sizes 0): fall back to even
            # over the devices still alive.
            shares = [
                0.0 if i in self._lost else 1.0 for i in range(ctx.ndev)
            ]
        if sum(shares) <= 0.0:  # every device lost: keep split_by_weights sane
            shares = [1.0] * ctx.ndev
        self._hand(self._split(lambda devs: [shares[i] for i in devs], self._remaining))

    def describe(self) -> str:
        return self._cutoff_notation(f"{self.sample_pct:.0%}")
