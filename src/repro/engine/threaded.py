"""Real-thread executor: the wall-clock backend of the execution core.

Runs the same kernel/scheduler machinery with actual host threads — one
proxy thread per simulated device, a lock-protected shared chunk queue,
and wall-clock timing.  There is no heterogeneity to exploit on the host,
so this is *not* how figures are produced; it exists to

* demonstrate that the scheduler protocol works under genuine concurrency
  (races on the shared cursor, out-of-order observe() calls), and
* let the profiling algorithms operate on real measured throughput.

Per the mpi4py/threading guidance for Python HPC code, the per-chunk work
is NumPy-heavy (releases the GIL), so proxy threads do overlap.

The chunk lifecycle — scheduling decisions, fault draws and bounded
retries, orphan reassignment, quarantine, trace buckets, span/metric
emission, coverage and the final result — is the shared core's
(:class:`~repro.engine.core.RunContext`); this module only decides *when*
things happen, in ``time.perf_counter`` seconds since the offload started.
That buys the threaded executor full fault/resilience parity with the
simulator:

* ``Slowdown`` stretches a chunk's compute by sleeping the extra time,
* ``TransferError`` draws from the same counter-based hash against a
  *nominal* link time (host-shared devices use a tiny epsilon so flaky
  links still fire), with real backoff sleeps,
* ``DeviceDropout`` (wall seconds since offload start) kills the proxy at
  a chunk boundary; its in-flight chunk and reserved ranges are requeued
  through ``scheduler.requeue``/``device_lost`` and drained by survivors.

Exactly-once numerics: transfer outcomes and the dropout check are
resolved *before* the kernel executes a chunk, so a failed or lost chunk
was never applied to the output arrays and can be re-served safely (the
simulator gets the same guarantee by only executing committed chunks).
Wall-clock consequence: fault timestamps for the copy-out leg are stamped
when the outcome is drawn, not where a real DMA would sit.

Every device kind computes on views of the host arrays, so a measured
``t_comp`` is the chunk's arithmetic alone, with no host-to-host copy
standing in for a discrete device's DMA.  Concurrent chunks cannot clobber
each other: inbound maps are read-only views, and no written map has a
halo, so proxies write disjoint rows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.engine.core import (
    ChunkPhase,
    EngineBase,
    RunContext,
)
from repro.engine.trace import OffloadResult
from repro.errors import OffloadError
from repro.faults.events import FaultKind
from repro.kernels.base import LoopKernel
from repro.sched.base import BARRIER, LoopScheduler

__all__ = ["ThreadedEngine"]

#: Nominal transfer time credited to a host-shared link so fault draws
#: still fire for devices whose real staging cost is zero.
_EPS_XFER_S = 1e-9


@dataclass
class ThreadedEngine(EngineBase):
    """Executes an offload with one real host thread per device."""

    #: Table name of this backend (wall-clock, real threads).
    backend_name = "threaded"
    clock = "wall"
    pipelined = False  # every stream batch starts from a drained pipeline

    def run(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        *,
        cutoff_ratio: float = 0.0,
    ) -> OffloadResult:
        with self._run_slot():
            return self._thread_loop(
                self._run_context(
                    kernel, scheduler, cutoff_ratio,
                    meta_extra={"executor": "threaded"},
                )
            )

    def _thread_loop(self, core: RunContext) -> OffloadResult:
        """Wall-clock event scheduling: the backend-specific part."""
        kernel = core.kernel
        scheduler = core.scheduler
        states = core.states
        plan = core.plan
        plan_active = core.plan_active

        lock = threading.Lock()
        cond = threading.Condition(lock)
        errors: list[BaseException] = []
        t0 = time.perf_counter()

        def wall() -> float:  # seconds since the offload started
            return time.perf_counter() - t0

        # Parked and drained proxies wait on the condition and re-check
        # their own state, so waking any device is waking them all.
        core.wake = lambda st, t: cond.notify_all()

        def proxy(devid: int) -> None:
            st = states[devid]
            drop_t = plan.dropout_t(devid) if plan_active else None
            try:
                while True:
                    with lock:
                        if errors:
                            return
                        if (
                            drop_t is not None
                            and wall() >= drop_t
                            and not st.lost
                        ):
                            core.mark_lost(
                                st, drop_t, FaultKind.DROPOUT,
                                detail="lost while idle",
                            )
                            cond.notify_all()
                            return
                        dec_t0 = wall()
                        decision = scheduler.next(devid)
                        dec_t1 = wall()
                        if decision is None and core.orphans:
                            # Scheduler drained but lost work remains.
                            decision = core.orphans.popleft()
                        if decision is BARRIER:
                            core.note_decision(st, dec_t0, dec_t1)
                            core.park(st, dec_t1)
                            while st.at_barrier is not None and not errors:
                                cond.wait(timeout=5.0)
                            continue
                        if decision is None:
                            core.note_decision(st, dec_t0, dec_t1)
                            st.done = True
                            core.maybe_release_barrier()
                            cond.notify_all()
                            # Park: a dying device may orphan work that
                            # only this proxy can drain.  ``add_orphan``
                            # revives us by clearing ``done``; the work
                            # may sit in the scheduler (requeue accepted)
                            # or in ``core.orphans``, so go back and ask.
                            while st.done:
                                if not any(not s.done for s in states):
                                    return
                                cond.wait(timeout=0.1)
                                if errors:
                                    return
                            continue
                        tm = core.begin_chunk(devid, decision, dec_t0)
                        chunk = tm.chunk
                        tm.t_sched = dec_t1 - dec_t0
                        cost = kernel.chunk_cost(chunk)
                        core.chunk_bytes(st, tm, cost)
                        st.first_chunk = False
                        # Pre-flight both (simulated) transfer legs: draws,
                        # fault events and backoff sleeps happen now, so a
                        # doomed chunk is never executed numerically.
                        tm.advance(ChunkPhase.XFER_IN)
                        tm.in_start = wall()
                        if plan_active:
                            t_nom_in = max(
                                st.device.transfer_time(tm.bytes_in),
                                _EPS_XFER_S,
                            )
                            tm.pad_in, tm.retries_in, tm.in_ok = (
                                core.transfer_attempts(
                                    st, chunk, "in", t_nom_in, tm.in_start,
                                    sleep=time.sleep,
                                )
                            )
                            if tm.in_ok:
                                t_nom_out = max(
                                    st.device.transfer_time(tm.bytes_out),
                                    _EPS_XFER_S,
                                )
                                tm.pad_out, tm.retries_out, tm.out_ok = (
                                    core.transfer_attempts(
                                        st, chunk, "out", t_nom_out,
                                        wall(), sleep=time.sleep,
                                    )
                                )
                        tm.in_end = wall()
                        dropped = (
                            drop_t is not None
                            and tm.ok
                            and wall() >= drop_t
                        )
                        if dropped or not tm.ok:
                            now = wall()
                            tm.comp_start = tm.comp_end = now
                            tm.out_start = tm.out_end = now
                            if dropped:
                                tm.dropped = True
                                core.drop_chunk(st, tm, drop_t)
                                cond.notify_all()
                                return
                            st.finish = max(st.finish, tm.out_end)
                            core.account_chunk(st, tm)
                            quarantined = core.fail_chunk(st, tm)
                            cond.notify_all()
                            if quarantined:
                                return
                            continue
                        tm.advance(ChunkPhase.COMPUTE)
                    # Compute outside the lock: NumPy releases the GIL, so
                    # proxy threads genuinely overlap here.
                    comp_start = wall()
                    partial = (
                        kernel.execute_chunk(chunk)
                        if core.execute_numerically else None
                    )
                    if plan_active:
                        factor = plan.slowdown_factor(devid, comp_start)
                        if factor > 1.0:
                            # A straggler: stretch the chunk by the extra
                            # time the slowdown would have cost.
                            time.sleep((factor - 1.0) * (wall() - comp_start))
                    comp_end = wall()
                    elapsed = comp_end - comp_start
                    with lock:
                        tm.advance(ChunkPhase.XFER_OUT)
                        tm.comp_start, tm.comp_end = comp_start, comp_end
                        tm.t_comp = elapsed
                        tm.out_start = tm.out_end = comp_end
                        st.finish = max(st.finish, tm.out_end)
                        core.account_chunk(st, tm)
                        core.commit_chunk(
                            st, tm, max(elapsed, 1e-9), partial=partial
                        )
            except BaseException as exc:  # surface worker failures to caller
                with lock:
                    errors.append(exc)
                    cond.notify_all()

        threads = [
            threading.Thread(
                target=proxy, args=(s.device.devid,),
                name=f"proxy-{s.device.name}",
            )
            for s in states
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if errors:
            raise OffloadError(f"proxy thread failed: {errors[0]!r}") from errors[0]
        return core.finalize(wall())
