"""Deterministic discrete-event execution of one offloaded loop.

Each device is the paper's Fig. 4 proxy thread, modelled as three pipeline
engines in virtual time:

* a copy-in engine (host -> device DMA),
* a compute engine,
* a copy-out engine (device -> host DMA),

A proxy acquires a chunk (paying the scheduler's compare-and-swap
overhead), stages its aligned input over the link, computes, and returns
the output.  Discrete-memory devices are double-buffered: the proxy may
request its next chunk as soon as the current chunk's copy-in finished and
at most one chunk is queued behind the running one — that is how dynamic
chunking overlaps data movement with computation (the effect the paper
credits for SCHED_DYNAMIC's wins on data-intensive kernels).  Host devices
run their chunks serially (the proxy *is* the compute resource).

Chunk acquisition across devices is linearised by a priority queue
(``heapq``) on ``(virtual request time, devid)``: time is whatever the most
recently popped request says it is, reproducing the ordering a real
CAS-based shared cursor produces, but deterministically.  The kernel is
executed numerically over exactly the committed chunks, on
:class:`~repro.memory.buffer.DeviceBuffer` views of the host arrays on
every device kind (a span-exact kernel's as merged runs of contiguous rows
at finalize, whichever devices committed them), so the simulated timeline
and the real numeric result come from the same chunk stream; what a
discrete device's copies would cost is priced by the link model alone.

This module is the **engine** of the shared execution core
(:mod:`repro.engine.core`): the chunk lifecycle — fault draws, bounded
retries, orphan reassignment, quarantine, trace buckets, observability
spans, coverage/reduction accounting — lives in
:class:`~repro.engine.core.RunContext`; this file only resolves *when*
each pipeline stage happens (contention on PCIe groups, the serialised
dispatch resource, unified-memory migration, double buffering) and walks
the event heap.  When a :class:`~repro.faults.plan.FaultPlan` is attached,
slowdowns scale stage durations, transfer errors cost bounded retries with
backoff (in virtual time), and dropouts remove a device permanently; a
chunk counts as covered — and is executed numerically — only if its whole
pipeline succeeds, so the numeric result of a survivable faulted run
matches the fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.engine.core import (
    ChunkPhase,
    EngineBase,
    RunContext,
)
from repro.engine.trace import OffloadResult
from repro.faults.events import FaultKind
from repro.kernels.base import LoopKernel
from repro.machine.spec import MemoryKind
from repro.memory.unified import UnifiedMemoryModel
from repro.sched.base import BARRIER, LoopScheduler

if TYPE_CHECKING:
    from repro.engine.batch import BatchRequest

__all__ = ["OffloadEngine"]

# Module globals: an Enum attribute read goes through the metaclass (~90 ns).
_XFER_IN, _COMPUTE, _XFER_OUT = (
    ChunkPhase.XFER_IN, ChunkPhase.COMPUTE, ChunkPhase.XFER_OUT
)

#: Cost model for devices with UNIFIED memory (paper §V.C): shared
#: semantics, but pages migrate over the bus at driver speed.
_UNIFIED = UnifiedMemoryModel()


@dataclass
class OffloadEngine(EngineBase):
    """Runs one kernel offload under one scheduling algorithm."""

    #: Without the paper's `parallel target` composite (§III.4), offloading
    #: to the target devices is serialised: one host thread stages every
    #: device's input in turn.  True = one shared dispatch resource.
    serialize_offload: bool = False
    #: Ablation switch: with double buffering off, a proxy only requests
    #: its next chunk after the current one fully drains (copy-out done),
    #: removing all transfer/compute overlap within a device.
    double_buffer: bool = True

    def run(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        *,
        cutoff_ratio: float = 0.0,
        carry_in: "dict | None" = None,
    ) -> OffloadResult:
        """``carry_in`` — cross-batch pipeline carry of a stream (devid ->
        :class:`~repro.engine.core.DeviceCarry`, the previous batch's
        :meth:`carry_out`), so this batch's copy-in can overlap that
        batch's still-running compute.  None = cold start."""
        with self._run_slot():
            return self._event_loop(
                self._run_context(kernel, scheduler, cutoff_ratio, carry_in=carry_in)
            )

    def run_many(self, requests: "list[BatchRequest]") -> list[OffloadResult]:
        """Execute a batch of cells; results are positionally aligned.

        Each cell goes through the event loop ``run`` uses, so its result
        is byte-identical to ``run``'s.  The run gate is held for the whole
        batch, so a concurrent ``run``/``run_many``/``configured`` is
        refused until the last cell finished.  Afterwards
        ``chunk_log``/``timeline``/``faults`` describe the last request.
        """
        with self._run_slot():
            results = []
            for req in requests:
                execute = req.execute_numerically
                if execute is None:
                    execute = self.execute_numerically
                core = self._run_context(
                    req.kernel,
                    req.scheduler,
                    req.cutoff_ratio,
                    execute_numerically=execute,
                )
                results.append(self._event_loop(core))
            return results

    def carry_out(self) -> dict:
        """Where the last run left each device's pipeline — the next
        stream batch's ``carry_in`` (empty before the first run)."""
        return self._run_ctx.carry_out() if self._run_ctx else {}

    def _event_loop(self, core: RunContext) -> OffloadResult:
        """Virtual-time event scheduling: when each stage happens."""
        kernel = core.kernel
        scheduler = core.scheduler
        states = core.states
        plan = core.plan
        plan_active = core.plan_active
        serialize_offload = self.serialize_offload
        double_buffer = self.double_buffer

        dispatch_free = 0.0  # shared host dispatcher (serialize_offload)
        # Devices sharing a PCIe slot contend for one bus resource.
        group_free: dict[str, float] = {}

        # Pending chunk requests, ``(request_time, devid)``.  A cold start
        # has every device ask at 0.0; in a stream batch with a warm
        # pipeline each surviving device asks at its carried next-request
        # time instead, so this batch's copy-ins queue behind (and overlap
        # with) the previous batch's still-draining stages.
        carry = core.carry_in or {}
        requests = [
            (carry[s.device.devid].ready if s.device.devid in carry else 0.0,
             s.device.devid)
            for s in states if not s.done
        ]
        heapify(requests)

        # A woken device asks again no earlier than it finished; one parked
        # at a barrier has finish <= at_barrier <= t, so there t stands.
        core.wake = lambda st, t: heappush(
            requests, (max(t, st.finish), st.device.devid)
        )

        # What the loop asks of each device, read once: specs are frozen and
        # the cost-model methods stay bound for the whole run.  Transfers
        # cost a DISCRETE link's Hockney time; UNIFIED memory has no explicit
        # copies, but its pages still cross the bus at driver-migration
        # speed (the 10-18x of paper section V.C); host memory moves nothing.
        lanes = [
            (st, spec.sched_overhead_s, spec.setup_overhead_s, spec.pcie_group,
             spec.link.transfer_time if spec.memory is MemoryKind.DISCRETE
             else partial(_UNIFIED.migration_time, spec.link)
             if spec.memory is MemoryKind.UNIFIED else None,
             st.device.compute_time)
            for st in states for spec in (st.device.spec,)
        ]

        while requests:
            t, devid = heappop(requests)
            st, sched_s, setup_s, group, transfer_time, compute_time = lanes[devid]
            if st.done:
                continue
            drop_t = plan.dropout_t(devid) if plan_active else None
            if drop_t is not None and t >= drop_t:
                core.mark_lost(
                    st, drop_t, FaultKind.DROPOUT, detail="lost while idle"
                )
                continue
            decision = scheduler.next(devid)

            if decision is None and core.orphans:
                # Scheduler is drained but lost work remains: adopt it.
                decision = core.orphans.popleft()

            if decision is None:
                st.done = True
                st.drain_t = t  # when the next batch may first request
                # If everyone else is parked at the barrier, release them.
                core.maybe_release_barrier()
                continue

            if decision is BARRIER:
                core.park(st, st.finish if st.finish > t else t)
                continue

            tm = core.begin_chunk(devid, decision, t)
            chunk = tm.chunk

            cost = kernel.chunk_cost(chunk)
            core.chunk_bytes(st, tm, cost)
            tm.t_setup = setup_s if st.first_chunk else 0.0
            st.first_chunk = False

            tm.t_sched = sched_s
            acquire_end = t + sched_s + tm.t_setup
            if transfer_time is not None:
                t_in = transfer_time(tm.bytes_in)
                t_out = transfer_time(tm.bytes_out)
            else:
                t_in = t_out = 0.0
            t_comp = compute_time(cost.flops, cost.mem_bytes)

            # ``max`` spelled out below: the same tie and NaN rule, no call.
            free = st.copy_in_free
            in_start = free if free > acquire_end else acquire_end
            if serialize_offload and dispatch_free > in_start:
                in_start = dispatch_free
            if group is not None:
                free = group_free.get(group, 0.0)
                in_start = free if free > in_start else in_start
            if plan_active:  # else the timing keeps its fault-free defaults
                t_in *= plan.slowdown_factor(devid, in_start)
                tm.pad_in, tm.retries_in, tm.in_ok = core.transfer_attempts(
                    st, chunk, "in", t_in, in_start
                )
            in_end = (
                in_start + tm.pad_in + t_in if tm.in_ok
                else in_start + tm.pad_in
            )
            if serialize_offload:
                dispatch_free = in_end
            if group is not None and in_end > in_start:
                group_free[group] = in_end
            comp_prev_end = st.comp_free
            if tm.in_ok:
                tm.advance(_XFER_IN, _COMPUTE, _XFER_OUT)
                comp_start = comp_prev_end if comp_prev_end > in_end else in_end
                if plan_active:
                    t_comp *= plan.slowdown_factor(devid, comp_start)
                comp_end = comp_start + t_comp
                free = st.copy_out_free
                out_start = free if free > comp_end else comp_end
                if group is not None:
                    free = group_free.get(group, 0.0)
                    out_start = free if free > out_start else out_start
                if plan_active:
                    t_out *= plan.slowdown_factor(devid, out_start)
                    tm.pad_out, tm.retries_out, tm.out_ok = (
                        core.transfer_attempts(st, chunk, "out", t_out, out_start)
                    )
                out_end = (
                    out_start + tm.pad_out + t_out if tm.out_ok
                    else out_start + tm.pad_out
                )
                if group is not None and out_end > out_start:
                    group_free[group] = out_end
            else:
                # Copy-in never succeeded: compute and copy-out don't run.
                tm.advance(_XFER_IN)
                comp_start = comp_end = in_end
                out_start = out_end = in_end

            tm.t_in, tm.t_comp, tm.t_out = t_in, t_comp, t_out
            tm.in_start, tm.in_end = in_start, in_end
            tm.comp_start, tm.comp_end = comp_start, comp_end
            tm.out_start, tm.out_end = out_start, out_end
            tm.dropped = (
                drop_t is not None and out_end > drop_t
            )  # the device dies before this chunk's outputs return

            if tm.dropped:
                core.drop_chunk(st, tm, drop_t)
                continue

            st.copy_in_free = in_end
            st.comp_free = comp_end
            st.copy_out_free = out_end
            if out_end > st.finish:
                st.finish = out_end

            core.account_chunk(st, tm)

            if not (tm.in_ok and tm.out_ok):
                # Transfer retries exhausted: the chunk is lost (its outputs
                # never returned), the device stays alive unless its fault
                # streak quarantines it; pipeline state is torn down, so a
                # surviving device resumes serially.
                if not core.fail_chunk(st, tm):
                    heappush(requests, (out_end, devid))
                continue

            core.commit_chunk(st, tm, t_in + t_comp + t_out)

            if st.device.shares_host_memory:
                # The host proxy is the compute resource: strictly serial.
                next_req = comp_end
            elif double_buffer:
                # Double buffering: next request once this chunk's input is
                # staged and at most one chunk is queued behind the running
                # one.
                next_req = comp_prev_end if comp_prev_end > in_end else in_end
            else:
                # Ablation: single-buffered proxy drains the whole pipeline
                # before asking for more work.
                next_req = out_end
            heappush(requests, (next_req, devid))

        return core.finalize()
