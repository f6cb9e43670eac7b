"""Compute-only analytical model — MODEL_1_AUTO (paper §IV.B.1).

Distributes the loop proportionally to each device's computational
capability alone: solve the equal-completion-time system (Eq. 1-3) with
per-iteration times derived from sustained performance, ignoring data
movement and fixed costs.  Single stage, lowest overhead of the AUTO
algorithms; mispredicts for data-intensive kernels (that's MODEL_2's job).
"""

from __future__ import annotations

from repro.model.linear_system import solve_equal_time_partition
from repro.sched.base import Decision, LoopScheduler, SchedContext
from repro.sched.cutoff import apply_cutoff
from repro.util.ranges import IterRange, split_by_weights

__all__ = ["Model1Scheduler"]


class Model1Scheduler(LoopScheduler):
    notation = "MODEL_1_AUTO"
    stages = 1
    supports_cutoff = True
    timing_oblivious = True  # split is fixed in start(); next() is static

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        per_iter = [ctx.per_iter_compute_s(d) for d in range(ctx.ndev)]
        zeros = [0.0] * ctx.ndev

        solution = solve_equal_time_partition(per_iter, zeros, ctx.n_iters)
        shares = list(solution.shares)

        def resolve(survivors: list[int]) -> list[float]:
            sub = solve_equal_time_partition(
                [per_iter[i] for i in survivors],
                [0.0] * len(survivors),
                ctx.n_iters,
            )
            return list(sub.shares)

        shares = apply_cutoff(shares, ctx.cutoff_ratio, resolve)
        self._chunks: list[IterRange] = split_by_weights(ctx.iter_space, shares)
        self._served = [False] * ctx.ndev

    def next(self, devid: int) -> Decision:
        if self._served[devid]:
            return None
        self._served[devid] = True
        chunk = self._chunks[devid]
        return None if chunk.empty else chunk

    def device_lost(self, devid: int) -> list[IterRange]:
        # Surrender the unclaimed static share of a dropped device.
        if self._served[devid]:
            return []
        self._served[devid] = True
        chunk = self._chunks[devid]
        return [] if chunk.empty else [chunk]

    def describe(self) -> str:
        cutoff = self.ctx.cutoff_ratio if self._ctx is not None else 0.0
        return f"{self.notation},-1,{cutoff:.0%}"
