"""ALIGN loop distribution: ``dist_schedule(target:[ALIGN(x)])``.

The paper's ``axpy_homp_v1``: the arrays are partitioned first (e.g.
BLOCK) and the loop's chunks are *copies* of the array subregion ranges,
so each device computes exactly the iterations whose data it holds.  This
is the "align computation with data" direction; it is not one of the seven
load-balancing algorithms (Table II) but a distribution policy (Table I).
"""

from __future__ import annotations

from repro.dist.align import AlignmentGraph
from repro.dist.distribution import DimDistribution
from repro.dist.policy import Align
from repro.errors import SchedulingError
from repro.sched.base import PlannedScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["AlignedScheduler"]


class AlignedScheduler(PlannedScheduler):
    notation = "ALIGN"
    stages = 1
    supports_cutoff = False

    def __init__(self, target: str, ratio: float = 1.0):
        super().__init__()
        if not target:
            raise SchedulingError("ALIGN schedule needs a target array name")
        self.target = target
        self.ratio = ratio

    def plan(self, ctx: SchedContext) -> tuple[tuple[IterRange, ...], ...]:
        kernel = ctx.kernel
        the_map = next(
            (m for m in kernel.effective_maps() if m.name == self.target), None
        )
        if the_map is None:
            raise SchedulingError(
                f"ALIGN({self.target}): kernel {kernel.name!r} maps no such array"
            )
        policy = the_map.policies[0]
        if isinstance(policy, Align):
            # The array itself aligns with the loop: circular. The paper's
            # alignment graph rejects this as a cycle.
            raise SchedulingError(
                f"ALIGN({self.target}): array aligns with the loop — "
                "use a concrete partition (e.g. BLOCK) on the array"
            )
        if policy.needs_runtime:
            raise SchedulingError(
                f"ALIGN({self.target}): array dim-0 policy {policy} is not static"
            )
        extent = IterRange(0, kernel.arrays[self.target].shape[0])
        graph = AlignmentGraph()
        graph.add_concrete(
            self.target, DimDistribution.from_policy(policy, extent, ctx.ndev)
        )
        graph.add_align(kernel.label, Align(self.target, self.ratio))
        loop_dist = graph.resolve(kernel.label)
        if len(loop_dist.region) != ctx.n_iters:
            raise SchedulingError(
                f"ALIGN({self.target}): aligned extent {len(loop_dist.region)} "
                f"!= iteration count {ctx.n_iters} (wrong ratio?)"
            )
        return loop_dist.parts

    def describe(self) -> str:
        return f"ALIGN({self.target})"

