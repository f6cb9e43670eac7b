"""Compute-only analytical model — MODEL_1_AUTO (paper §IV.B.1).

Distributes the loop proportionally to each device's computational
capability alone: solve the equal-completion-time system (Eq. 1-3) with
per-iteration times derived from sustained performance, ignoring data
movement and fixed costs.  Single stage, lowest overhead of the AUTO
algorithms; mispredicts for data-intensive kernels (that's MODEL_2's job).
"""

from __future__ import annotations

from repro.sched.base import PlannedScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["Model1Scheduler"]


class Model1Scheduler(PlannedScheduler):
    notation = "MODEL_1_AUTO"
    stages = 1
    supports_cutoff = True

    def plan(self, ctx: SchedContext) -> list[IterRange]:
        return self._split_equal_time(ctx.per_iter_compute_s, lambda devid: 0.0)

    def describe(self) -> str:
        return self._cutoff_notation("-1")
