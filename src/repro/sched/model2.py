"""Compute + data-movement analytical model — MODEL_2_AUTO (paper §IV.B.2).

Extends MODEL_1 with the Hockney-model data-transfer term of Eq. 4-5:
each device's time for a chunk is ``DataT_dev + ExeT_dev``, so the
per-iteration rate includes the aligned bytes crossing the PCIe link, and
the fixed cost includes launch overhead, link latencies and the broadcast
of FULL-mapped arrays.  Host devices pay no transfer, which is exactly why
this model shifts work toward the host for data-intensive kernels.

Inside a target-data region both terms come from the residency view
(:class:`~repro.sched.base.SchedContext` consults the region's placement
plan through ``ctx.residency``): already-staged arrays contribute zero
``DataT``/broadcast bytes, and rows a dropout wiped re-enter the bill, so
the equal-time solution reflects what will actually cross the bus.
"""

from __future__ import annotations

from repro.model.linear_system import solve_equal_time_partition
from repro.sched.base import Decision, LoopScheduler, SchedContext
from repro.sched.cutoff import apply_cutoff
from repro.util.ranges import IterRange, split_by_weights

__all__ = ["Model2Scheduler"]


class Model2Scheduler(LoopScheduler):
    notation = "MODEL_2_AUTO"
    stages = 1
    supports_cutoff = True
    timing_oblivious = True  # split is fixed in start(); next() is static

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        per_iter = [ctx.per_iter_total_s(d) for d in range(ctx.ndev)]
        fixed = [ctx.fixed_cost_s(d) for d in range(ctx.ndev)]

        solution = solve_equal_time_partition(per_iter, fixed, ctx.n_iters)
        shares = list(solution.shares)

        def resolve(survivors: list[int]) -> list[float]:
            sub = solve_equal_time_partition(
                [per_iter[i] for i in survivors],
                [fixed[i] for i in survivors],
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
