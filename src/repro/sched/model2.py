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

from repro.sched.base import PlannedScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["Model2Scheduler"]


class Model2Scheduler(PlannedScheduler):
    notation = "MODEL_2_AUTO"
    stages = 1
    supports_cutoff = True

    def plan(self, ctx: SchedContext) -> list[IterRange]:
        return self._split_equal_time(ctx.per_iter_total_s, ctx.fixed_cost_s)

    def describe(self) -> str:
        return self._cutoff_notation("-1")
