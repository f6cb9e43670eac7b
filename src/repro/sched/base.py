"""Scheduler protocol shared by all seven loop-distribution algorithms.

A scheduler is driven by the offload engine through three calls:

* :meth:`LoopScheduler.start` — the loop is encountered; upfront
  partitioning happens here (for the schedulers that do not decide by the
  clock: in :meth:`PlannedScheduler.plan`, the one method they implement).
* :meth:`LoopScheduler.next` — a device proxy asks for its next chunk.
  Returns an :class:`~repro.util.ranges.IterRange`, the sentinel
  :data:`BARRIER` (two-stage algorithms: wait until every active device
  reaches the barrier), or ``None`` (no more work for this device).
* :meth:`LoopScheduler.observe` — the engine reports a finished chunk and
  its measured per-device elapsed time; the profiling algorithms turn this
  into throughput.

plus :meth:`LoopScheduler.at_barrier`, invoked once when all devices that
asked for the barrier have arrived.

The invariant every implementation must keep (and property tests enforce):
the chunks handed out across all devices tile the iteration space exactly —
no iteration lost, none duplicated.

:class:`SchedContext` gives schedulers the per-device analytic quantities
of the paper's Table III (``ExeT``, ``DataT``, fixed costs) derived from
the kernel's cost descriptors and the device specs.

When the engine runs under an active tracer (:mod:`repro.obs`), the
context also carries a ``metrics`` registry; schedulers may record their
own counters/histograms through it (it is ``None`` — and must be left
untouched — on untraced runs, which is the common case).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import SchedulingError
from repro.kernels.base import ELEM, LoopKernel
from repro.machine.device import Device
from repro.model.linear_system import solve_equal_time_partition
from repro.sched.cutoff import apply_cutoff, parse_cutoff_ratio
from repro.util.ranges import IterRange, split_by_weights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.residency import RegionResidency
    from repro.obs.metrics import MetricsRegistry

__all__ = ["BARRIER", "Decision", "SchedContext", "LoopScheduler", "PlannedScheduler"]


class _Barrier:
    """Sentinel: the device must wait for all active devices."""


BARRIER = _Barrier()

#: What ``next`` may return.
Decision = IterRange | _Barrier | None


@dataclass
class SchedContext:
    """Everything a scheduler may consult about the offload at hand."""

    kernel: LoopKernel
    devices: list[Device]
    cutoff_ratio: float = 0.0
    chunk_pct: float = -1.0  # algorithm parameter; -1 = unused (paper notation)
    #: Metrics sink for traced runs (None when observability is off).
    metrics: "MetricsRegistry | None" = None
    #: Residency view of the enclosing target-data region (None outside a
    #: region).  When set, the data-cost terms below come from the region's
    #: placement plan instead of the kernels' raw array bytes.
    residency: "RegionResidency | None" = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise SchedulingError("offload needs at least one device")
        self.cutoff_ratio = parse_cutoff_ratio(self.cutoff_ratio)

    @property
    def n_iters(self) -> int:
        return self.kernel.n_iters

    @property
    def ndev(self) -> int:
        return len(self.devices)

    @property
    def iter_space(self) -> IterRange:
        return self.kernel.iter_space

    # -- Table III quantities, per iteration ---------------------------------

    def per_iter_compute_s(self, devid: int) -> float:
        """ExeT per iteration as the paper's model sees it.

        Table III: ``ExeT = FLOPs / (Perf * MemComp)`` with ``Perf`` from
        microbenchmark profiling — a FLOP-rate model whose MemComp factor
        is device-independent and cancels in the distribution ratios, so it
        is omitted here.  Devices whose microbenchmark rate exceeds their
        generic-loop rate (``model_gflops`` > ``sustained_gflops``) are
        systematically overpredicted, exactly like the paper's MICs.
        Zero-FLOP loops (pure copies) fall back to the bandwidth bound.
        """
        dev = self.devices[devid]
        fpi = self.kernel.flops_per_iter()
        mem_bps = dev.spec.mem_bandwidth_gbs * 1e9
        t_flops = fpi / (dev.spec.modeled_gflops * 1e9)
        t_mem = self.kernel.mem_accesses_per_iter() * ELEM / mem_bps
        return max(t_flops, t_mem)

    def per_iter_xfer_s(self, devid: int) -> float:
        """DataT per iteration: aligned bytes over the device link.

        Inside a target-data region the bytes come from the residency
        view's placement plan (only the fraction of the device's mapped
        ranges that is *missing* — zero on an intact placement, the full
        rate again after a dropout); outside, from the kernel's flat
        per-iteration transfer model.
        """
        dev = self.devices[devid]
        if dev.spec.link.is_shared:
            return 0.0
        if self.residency is not None:
            nbytes = self.residency.per_iter_xfer_bytes(devid, self.kernel)
        else:
            nbytes = self.kernel.xfer_elems_per_iter() * ELEM
        # Steady-state: bandwidth term only; latencies are in fixed_cost_s.
        return nbytes / (self.devices[devid].spec.link.bandwidth_gbs * 1e9)

    def fixed_cost_s(self, devid: int) -> float:
        """One-off cost of involving a device: launch, link latencies, and
        the broadcast of FULL-mapped input arrays (only the not-yet-resident
        bytes when a target-data region's placement covers them)."""
        dev = self.devices[devid]
        cost = dev.spec.launch_overhead_s
        if not dev.spec.link.is_shared:
            cost += 2 * dev.spec.link.latency_s  # one in + one out message
            if self.residency is not None:
                rep = self.residency.replicated_in_bytes(devid, self.kernel)
            else:
                rep = self.kernel.replicated_in_bytes()
            cost += dev.spec.link.transfer_time(rep)
        return cost

    def per_iter_total_s(self, devid: int) -> float:
        """Compute + data movement per iteration (MODEL_2's view)."""
        return self.per_iter_compute_s(devid) + self.per_iter_xfer_s(devid)


class LoopScheduler(ABC):
    """Base class for loop-distribution algorithms."""

    #: paper Table II notation, e.g. "SCHED_DYNAMIC"
    notation: str = "?"
    #: number of distribution stages (Table II column)
    stages: int = 1
    #: whether the CUTOFF ratio applies (last four algorithms in Table II)
    supports_cutoff: bool = False
    #: whether ``next`` is timing-oblivious: decisions depend only on the
    #: asking device's own call history plus the barrier phase, never on
    #: the virtual clock or the interleaving of the other devices.  The
    #: service coalesces only such jobs (:mod:`repro.service.coalesce`);
    #: every :class:`PlannedScheduler` is, the dynamic/guided/work-stealing
    #: families react to measured completion times.
    timing_oblivious: bool = False

    def __init__(self) -> None:
        self._ctx: SchedContext | None = None

    @staticmethod
    def _fraction(name: str, value) -> float:
        """``value`` checked as a fraction in ``(0, 1]``; a bool is not one."""
        if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value <= 1.0:
            raise SchedulingError(f"{name} must be a fraction in (0, 1], got {value!r}")
        return value

    @staticmethod
    def _count(name: str, value) -> int:
        """``value`` checked as an integer count ``>= 1``; a bool is not one."""
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise SchedulingError(f"{name} must be an integer >= 1, got {value!r}")
        return value

    @property
    def ctx(self) -> SchedContext:
        if self._ctx is None:
            raise SchedulingError(f"{self.notation}: start() not called")
        return self._ctx

    def start(self, ctx: SchedContext) -> None:
        """Reset internal state for a new offload."""
        self._ctx = ctx

    @abstractmethod
    def next(self, devid: int) -> Decision:
        """The next chunk for ``devid``, BARRIER, or None when done."""

    def observe(self, devid: int, chunk: IterRange, elapsed_s: float) -> None:
        """Feedback after a chunk completes (profiling algorithms)."""

    def at_barrier(self) -> None:
        """All active devices reached the barrier (two-stage algorithms)."""

    # -- resilience hooks (used by the fault-injecting engine) ---------------

    def requeue(self, chunk: IterRange) -> bool:
        """Take back an orphaned chunk (lost with a dropped device or after
        exhausted transfer retries) for redistribution through ``next``.

        Return True if the scheduler will re-serve the chunk itself;
        False (the default) lets the engine split it across the surviving
        devices directly.
        """
        return False

    def device_lost(self, devid: int) -> list[IterRange]:
        """The engine permanently lost ``devid`` (dropout or quarantine).

        The device will never call ``next`` again; schedulers holding
        per-device plans should stop counting on it and return any
        iteration ranges that were reserved exclusively for it (they would
        otherwise never be served) so the engine can reassign them.
        """
        return []

    def describe(self) -> str:
        """Paper-style notation with parameters, e.g. 'SCHED_DYNAMIC,2%'."""
        return self.notation


class PlannedScheduler(LoopScheduler):
    """A scheduler that plans, then serves: ``plan`` decides each device's
    ranges and this class hands them out, once, in order.

    Serving (``next``) and surrendering (``device_lost``) are written here
    only, over one FIFO queue per device, so every ``plan`` conserves
    iterations under dropout.  The profilers ``_hand`` a second plan over.
    """

    #: ``next`` pops the asking device's own queue and nothing else (an
    #: ``observe`` override may feed the next offload's plan, never this one).
    timing_oblivious = True

    @abstractmethod
    def plan(self, ctx: SchedContext) -> Sequence[IterRange | Sequence[IterRange]]:
        """One range, or an ordered list of ranges, per device."""

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        # Plain lists: a batch keeps thousands of schedulers alive at once.
        self._queues: list[list[IterRange]] = [[] for _ in ctx.devices]
        self._hand(self.plan(ctx))

    def _hand(self, parts: Sequence[IterRange | Sequence[IterRange]]) -> None:
        """Append ``parts[d]`` (empty ranges dropped) to device ``d``'s queue."""
        for queue, part in zip(self._queues, parts, strict=True):
            if isinstance(part, IterRange):
                if part.start != part.stop:
                    queue.append(part)
            else:
                queue.extend(r for r in part if not r.empty)

    def next(self, devid: int) -> Decision:
        queue = self._queues[devid]
        return queue.pop(0) if queue else None

    def device_lost(self, devid: int) -> list[IterRange]:
        # What is still queued would never be served: surrender it.
        orphaned, self._queues[devid] = self._queues[devid], []
        return orphaned

    # -- what plans are made of ----------------------------------------------

    def _split(
        self,
        solve: Callable[[list[int]], Sequence[float]],
        space: IterRange | None = None,
    ) -> list[IterRange]:
        """Shares -> CUTOFF (§IV.E) -> contiguous ranges, one per device.

        ``solve(device_indices)`` returns those devices' work shares (any
        non-negative scale): asked once for all devices, then again for the
        survivors of each CUTOFF round.  ``space`` defaults to the whole loop.
        """
        ctx = self.ctx
        shares = apply_cutoff(solve(list(range(ctx.ndev))), ctx.cutoff_ratio, solve)
        return split_by_weights(ctx.iter_space if space is None else space, shares)

    def _split_equal_time(
        self, per_iter_s: Callable[[int], float], fixed_s: Callable[[int], float]
    ) -> list[IterRange]:
        """``_split`` by the equal-completion-time system (Eq. 1-5) over each
        device's per-iteration time and fixed cost (``devid -> seconds``)."""
        ctx = self.ctx
        per_iter = [per_iter_s(d) for d in range(ctx.ndev)]
        fixed = [fixed_s(d) for d in range(ctx.ndev)]

        def solve(devs: list[int]) -> Sequence[float]:
            return solve_equal_time_partition(
                [per_iter[i] for i in devs], [fixed[i] for i in devs], ctx.n_iters
            ).shares

        return self._split(solve)

    def _cutoff_notation(self, param: str) -> str:
        """Table II's ``NOTATION,param,cutoff%`` (``-1``: no parameter)."""
        cutoff = self._ctx.cutoff_ratio if self._ctx is not None else 0.0
        return f"{self.notation},{param},{cutoff:.0%}"
