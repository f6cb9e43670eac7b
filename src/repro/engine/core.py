"""Shared offload execution core: one chunk-lifecycle state machine.

The virtual-time engine (:mod:`repro.engine.simulator`) drives every chunk
through the same lifecycle::

    request -> sched-decision -> xfer_in -> compute -> xfer_out -> observe
                     |               |                     |
                  barrier          retry ... retry       retry
                     |               |                     |
                   (wait)         requeue  ------------ requeue
                                     |                     |
                                 quarantine ---------- quarantine

:class:`RunContext` owns everything that is *not* time: fault-plan draws
and the bounded retry loop, orphan-chunk reassignment through the
scheduler's ``requeue``/``device_lost`` hooks, quarantine via
:class:`~repro.faults.policy.HealthTracker`, the
:class:`~repro.engine.trace.DeviceTrace` bucket accounting, observability
span/metric emission at each transition, coverage and reduction tracking,
and the final :class:`~repro.engine.trace.OffloadResult` assembly.  The
engine contributes only the *scheduling of events in time* and the one
``wake`` hook that tells it a device has work again: it resolves the
pipeline analytically and keeps ``(request_time, devid)`` on a ``heapq``.

:func:`make_backend` builds an engine; ``"virtual"`` and ``"batch"`` both
name :class:`~repro.engine.simulator.OffloadEngine`.

Determinism contract: routing the lifecycle through this module is
**bit-identical** to the pre-core engine — the transition helpers replay
the exact arithmetic, accumulation order and event-emission order of the
original monolithic loop (pinned by ``tests/engine/test_bit_identity.py``
and the CI smoke fixture).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields
from enum import Enum
from typing import Any, Callable

from repro.engine.events import ChunkEvent, Timeline
from repro.engine.trace import DeviceTrace, OffloadResult
from repro.errors import EngineBusyError, FaultError, FaultPlanError, OffloadError
from repro.faults.events import ChunkFault, FaultKind
from repro.faults.plan import FaultPlan
from repro.faults.policy import HealthTracker, ResiliencePolicy
from repro.kernels.base import LoopKernel
from repro.machine.device import Device
from repro.machine.spec import MachineSpec
from repro.memory.residency import RegionResidency
from repro.obs import span as _sp
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS as _CHUNK_SIZE_BUCKETS
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, resolve_tracer
from repro.sched.base import LoopScheduler, SchedContext
from repro.util.ranges import IterRange, split_block

__all__ = [
    "ChunkPhase",
    "LIFECYCLE",
    "StageTiming",
    "DeviceState",
    "DeviceCarry",
    "RunContext",
    "EngineBase",
    "make_backend",
]

# ---------------------------------------------------------------------------
# Chunk lifecycle state machine
# ---------------------------------------------------------------------------

class ChunkPhase(Enum):
    """Phases a chunk passes through inside one offload."""

    REQUEST = "request"
    SCHED = "sched-decision"
    XFER_IN = "xfer_in"
    COMPUTE = "compute"
    XFER_OUT = "xfer_out"
    OBSERVE = "observe"
    DONE = "done"
    RETRY = "retry"
    REQUEUE = "requeue"
    QUARANTINE = "quarantine"
    LOST = "lost"

    # Members are singletons (pickle resolves them by value), so identity
    # is their hash — and, unlike Enum's Python-level ``hash(self._name_)``,
    # free: ``advance`` hashes two of these per step, six steps per chunk.
    __hash__ = object.__hash__


#: Legal transitions.  ``RETRY`` loops on the transfer stages; a chunk whose
#: retries are exhausted (or whose device died mid-flight) leaves through
#: ``REQUEUE``/``LOST`` and is re-served to the survivors; ``QUARANTINE``
#: additionally removes the device.
LIFECYCLE: dict[ChunkPhase, frozenset[ChunkPhase]] = {
    ChunkPhase.REQUEST: frozenset({ChunkPhase.SCHED, ChunkPhase.LOST}),
    ChunkPhase.SCHED: frozenset({ChunkPhase.XFER_IN, ChunkPhase.LOST}),
    ChunkPhase.XFER_IN: frozenset({
        ChunkPhase.RETRY, ChunkPhase.COMPUTE, ChunkPhase.REQUEUE,
        ChunkPhase.LOST,
    }),
    ChunkPhase.RETRY: frozenset({
        ChunkPhase.XFER_IN, ChunkPhase.XFER_OUT, ChunkPhase.COMPUTE,
        ChunkPhase.OBSERVE, ChunkPhase.REQUEUE, ChunkPhase.LOST,
    }),
    ChunkPhase.COMPUTE: frozenset({ChunkPhase.XFER_OUT, ChunkPhase.LOST}),
    ChunkPhase.XFER_OUT: frozenset({
        ChunkPhase.RETRY, ChunkPhase.OBSERVE, ChunkPhase.REQUEUE,
        ChunkPhase.LOST,
    }),
    ChunkPhase.OBSERVE: frozenset({ChunkPhase.DONE}),
    ChunkPhase.REQUEUE: frozenset({ChunkPhase.QUARANTINE, ChunkPhase.REQUEST}),
    ChunkPhase.QUARANTINE: frozenset(),
    ChunkPhase.LOST: frozenset(),
    ChunkPhase.DONE: frozenset(),
}

# The three transitions the core makes per chunk, as module globals: an Enum
# attribute read goes through the metaclass (~90 ns each on CPython 3.11).
_SCHED, _OBSERVE, _DONE = ChunkPhase.SCHED, ChunkPhase.OBSERVE, ChunkPhase.DONE

#: Staged footprint cap of one merged span: runs stay cache-sized, which
#: beats one call over every row (the sweep is in docs/PERFORMANCE.md).
_SPAN_CAP_BYTES = 256 * 1024


class StageTiming:
    """Resolved timeline of one chunk's trip through the pipeline.

    The engine fills the timestamps in virtual seconds since offload
    start; the core charges trace buckets and emits spans from them.
    ``phase`` tracks the lifecycle position and is validated against
    :data:`LIFECYCLE` on every transition.  Unset fields
    read the class-level defaults, so opening a chunk costs three stores.
    """

    chunk: IterRange
    acquire_t: float = 0.0
    t_sched: float = 0.0
    t_setup: float = 0.0
    t_in: float = 0.0
    t_comp: float = 0.0
    t_out: float = 0.0
    pad_in: float = 0.0
    pad_out: float = 0.0
    retries_in: int = 0
    retries_out: int = 0
    in_ok: bool = True
    out_ok: bool = True
    in_start: float = 0.0
    in_end: float = 0.0
    comp_start: float = 0.0
    comp_end: float = 0.0
    out_start: float = 0.0
    out_end: float = 0.0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    #: Bytes a residency view proved already on-device (zero without one).
    elided_in: float = 0.0
    elided_out: float = 0.0
    dropped: bool = False
    phase: ChunkPhase = ChunkPhase.REQUEST

    def __init__(self, chunk, acquire_t=0.0, phase=ChunkPhase.REQUEST):
        self.chunk = chunk
        self.acquire_t = acquire_t
        self.phase = phase

    @property
    def retried(self) -> int:
        return self.retries_in + self.retries_out

    @property
    def ok(self) -> bool:
        return self.in_ok and self.out_ok and not self.dropped

    def advance(self, *path: ChunkPhase) -> None:
        """Take each step of ``path`` that :data:`LIFECYCLE` allows; an
        illegal one raises, leaving the chunk at the last legal phase."""
        for to in path:
            if to not in LIFECYCLE[self.phase]:
                raise OffloadError(
                    f"illegal chunk lifecycle transition "
                    f"{self.phase.value} -> {to.value} for chunk {self.chunk}"
                )
            self.phase = to


@dataclass
class DeviceCarry:
    """Where one device's pipeline stands between two batches of a stream.

    A stream batch does not start from a cold pipeline: batch ``k+1``'s
    copy-in may begin while batch ``k``'s compute is still running on the
    same device.  The carry records where each of the device's three
    pipeline engines frees (in cumulative stream time), when the device
    may request its first chunk of the next batch (``ready`` — the
    request it would have made had more work existed), whether it has
    already paid its one-time setup overhead (``first_chunk``), and
    whether it is permanently gone (``lost``: dropout/quarantine persists
    for the rest of the stream).  A :class:`DeviceState` is its device's
    carry.
    """

    copy_in_free: float = 0.0
    comp_free: float = 0.0
    copy_out_free: float = 0.0
    finish: float = 0.0
    ready: float = 0.0
    first_chunk: bool = True
    lost: bool = False  # permanently dead (dropout or quarantine)


#: What a run seeds from a carry that is not its own states.
_CARRIED = tuple(f.name for f in dataclass_fields(DeviceCarry))


@dataclass(kw_only=True)
class DeviceState(DeviceCarry):
    """Mutable per-device execution state of one run: the carried clocks
    plus what every run starts afresh (``ready`` is set at the drain)."""

    device: Device
    trace: DeviceTrace
    done: bool = False
    at_barrier: float | None = None


# ---------------------------------------------------------------------------
# The shared run context
# ---------------------------------------------------------------------------

class _Skeleton(dict):
    """What the batches of one stream share, built at batch 0: the devices,
    their states (this mapping, devid -> state), the scheduler context and
    the event loop's lanes.  It is a run's carry: a run handed it over the
    same ``key`` (machine, kernel, scheduler, options but the tracer)
    adopts it; any other carry seeds a new skeleton's states."""

    def __init__(self, key: tuple, devices: list[Device]) -> None:
        super().__init__(
            (d.devid, DeviceState(device=d, trace=None)) for d in devices
        )
        self.key = key
        self.devices = devices
        self.states = list(self.values())
        self.sched_ctx: SchedContext | None = None
        self.lanes: list | None = None  # built by the first event loop


class RunContext:
    """All mutable state of one offload run, plus the transition helpers.

    One instance is created per ``run()`` call and discarded with it, so a
    mid-run exception cannot leak state into the next run and two engines
    (or two runs racing on one engine — rejected anyway, see
    :class:`EngineBase`) never share accounting.  Only a stream's
    skeleton (:class:`_Skeleton`) outlives a run: its next batch adopts
    it through ``carry_in`` and builds everything a result holds afresh.
    """

    def __init__(
        self,
        *,
        machine: MachineSpec,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        cutoff_ratio: float = 0.0,
        seed: int = 0,
        execute_numerically: bool = True,
        record_events: bool = False,
        fault_plan: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
        tracer: Tracer | NullTracer | None = NULL_TRACER,
        residency=None,
        carry_in: "dict[int, DeviceCarry] | None" = None,
    ):
        if fault_plan is not None:
            # Plan ids index the selected devices; a stray id would inject
            # nothing, so refuse it.
            ndev = len(machine.devices)
            stray = sorted({f.devid for f in fault_plan.faults if f.devid >= ndev})
            if stray:
                raise FaultPlanError(
                    f"fault plan names device id(s) {stray}, but only "
                    f"{ndev} device(s) are selected (ids 0..{ndev - 1})"
                )
        self.machine = machine
        self.kernel = kernel
        self.scheduler = scheduler
        self.seed = seed
        self.execute_numerically = execute_numerically
        self.record_events = record_events

        key = (
            machine, kernel, scheduler, seed, execute_numerically,
            record_events, fault_plan, resilience, residency,
        )
        skel = carry_in
        if type(skel) is not _Skeleton or skel.key != key:
            skel = _Skeleton(key, [
                Device(i, spec, seed) for i, spec in enumerate(machine.devices)
            ])
            for devid, carry in (carry_in or {}).items():
                st = skel[devid]
                for name in _CARRIED:
                    setattr(st, name, getattr(carry, name))
        #: This run's skeleton: the carry it hands the next batch.
        self.carry = skel
        self.devices = skel.devices
        self.states = skel.states
        for st in self.states:
            dev = st.device
            dev._rng = None  # noise draws restart with every run
            st.trace = DeviceTrace(dev.devid, dev.spec.name)
            st.done = st.lost
            st.at_barrier = None

        self.obs = resolve_tracer(tracer)
        #: one attribute check; hot paths branch on this local-able flag
        self.traced = self.obs.enabled
        #: Whether each committed chunk goes through :meth:`account_chunk`.
        self.loud = self.traced or record_events
        self.met = self.obs.metrics if self.traced else None
        #: RegionResidency view of the enclosing target-data region, or
        #: None.  With None the transfer arithmetic below is bit-identical
        #: to the pre-ledger engine (the bit-identity contract); with a
        #: view, chunks charge only the delta against what is resident.
        self.residency = residency
        self.bytes_moved = 0.0
        self.bytes_elided = 0.0
        ctx = skel.sched_ctx
        if ctx is None or (ctx.metrics, ctx.cutoff_ratio) != (self.met, cutoff_ratio):
            ctx = skel.sched_ctx = SchedContext(
                kernel=kernel, devices=self.devices, cutoff_ratio=cutoff_ratio,
                metrics=self.met, residency=residency,
            )
        scheduler.start(ctx)
        #: Whether the scheduler's class overrides the no-op ``observe``.
        self.observes = (
            getattr(type(scheduler), "observe", None) is not LoopScheduler.observe
        )

        self.plan = fault_plan
        self.plan_active = fault_plan is not None and not fault_plan.empty
        resilience = ResiliencePolicy() if resilience is None else resilience
        self.retry = resilience.retry
        self.health = HealthTracker(resilience.quarantine_after)
        self.xfer_attempts: dict[int, int] = {}  # per-device monotonic counters
        self.orphans: deque[IterRange] = deque()
        self.parked = 0  # states parked at a barrier (see park)
        self.reduction = kernel.identity()
        self.reduces = kernel.is_reduction  # read once, asked per chunk
        #: A span-exact kernel's committed ``(start, stop)`` rows, run by
        #: :meth:`finalize` (None: numerics run per chunk, at commit).
        exact = execute_numerically and kernel.span_exact and not self.reduces
        self.spans: list[tuple[int, int]] | None = [] if exact else None
        self.events: list[ChunkEvent] = []
        self.faults: list[ChunkFault] = []

        #: The one engine hook, installed before the event loop starts:
        #: device ``st`` has work again at time ``t`` (it was drained and
        #: an orphan appeared, or it was parked at a barrier that released).
        self.wake: Callable[[DeviceState, float], None] = lambda st, t: None

        for devid, carry in (carry_in or {}).items():
            if carry.lost:
                # The device died in an earlier batch; surrender whatever
                # share this batch's scheduler reserved for it.
                for reserved in scheduler.device_lost(devid):
                    self.add_orphan(reserved, carry.finish)

    # -- lifecycle entry -----------------------------------------------------

    def begin_chunk(self, devid: int, chunk: IterRange, t: float) -> StageTiming:
        """``request -> sched-decision``: a device acquired a chunk."""
        if chunk.start == chunk.stop:
            raise OffloadError(
                f"{self.scheduler.notation} handed an empty chunk to "
                f"device {devid}"
            )
        tm = StageTiming(chunk, t)
        tm.advance(_SCHED)
        return tm

    def chunk_bytes(self, st: DeviceState, tm: StageTiming, cost) -> None:
        """Fill ``tm.bytes_in``/``bytes_out`` (and elisions) for one chunk.

        Without a residency view this replays the pre-ledger arithmetic
        exactly (flat per-chunk transfer bytes plus the FULL-map replica
        on a device's first chunk) — the bit-identity contract.  With a
        view, the bytes are the delta between what the chunk touches and
        what the ledger says is already on the device; elided bytes are
        recorded on the timing for span/metric emission.  Does not clear
        ``st.first_chunk`` — the engine does, after charging setup overhead.
        """
        res = self.residency
        if res is None:
            tm.bytes_in = cost.xfer_in_bytes + (
                cost.replicated_in_bytes if st.first_chunk else 0.0
            )
            tm.bytes_out = cost.xfer_out_bytes
            return
        tm.bytes_in, tm.bytes_out, tm.elided_in, tm.elided_out = (
            res.charge_chunk(
                st.device.devid, self.kernel, tm.chunk,
                first_chunk=st.first_chunk,
            )
        )

    # -- fault machinery (identical draws and emission order to pre-core) ----

    def emit_fault(
        self,
        kind: FaultKind,
        st: DeviceState,
        t_f: float,
        *,
        chunk: IterRange | None = None,
        stage: str = "",
        detail: str = "",
    ) -> None:
        self.faults.append(
            ChunkFault(
                kind=kind,
                devid=st.device.devid,
                device_name=st.device.name,
                t=t_f,
                chunk=chunk,
                stage=stage,
                detail=detail,
            )
        )

    def add_orphan(self, chunk: IterRange, t_now: float) -> None:
        """Reassign a lost chunk to the survivors and wake idle ones."""
        alive = [s for s in self.states if not s.lost]
        if not alive:
            self.orphans.append(chunk)  # unrecoverable; reported at the end
            return
        if not self.scheduler.requeue(chunk):
            self.orphans.extend(
                p for p in split_block(chunk, len(alive)) if not p.empty
            )
        for s in alive:
            if s.done:  # drained earlier; there is work again
                s.done = False
                self.wake(s, t_now)

    def mark_lost(
        self,
        st: DeviceState,
        t_lost: float,
        kind: FaultKind,
        *,
        chunk: IterRange | None = None,
        detail: str = "",
    ) -> None:
        """``-> lost``/``-> quarantine``: the device leaves permanently."""
        st.lost = True
        st.done = True
        st.trace.lost_at = t_lost
        if self.residency is not None:
            # Dropout loses the device's buffer contents: reassigned
            # chunks must re-pay their transfers on the survivors.
            lost_rows = self.residency.device_lost(st.device.devid)
            if self.traced and lost_rows:
                self.met.inc(
                    "residency_rows_invalidated", lost_rows,
                    device=st.device.name,
                )
        self.emit_fault(kind, st, t_lost, chunk=chunk, detail=detail)
        for reserved in self.scheduler.device_lost(st.device.devid):
            self.add_orphan(reserved, t_lost)
        # The dead device can no longer hold up a barrier.
        self.maybe_release_barrier()

    def transfer_attempts(
        self,
        st: DeviceState,
        chunk: IterRange,
        direction: str,
        t_x: float,
        start_t: float,
    ) -> tuple[float, int, bool]:
        """Outcome of one (possibly retried) transfer.

        Returns ``(pad_s, retried, ok)``: time wasted on failed attempts
        and backoffs, the number of retried attempts, and whether a
        transfer eventually went through.  Draws come from the plan's
        counter-based hash keyed on a per-device monotonic attempt
        counter, so a re-served chunk faces fresh draws.  The pad is pure
        virtual-time arithmetic.
        """
        if not self.plan_active or t_x <= 0.0:
            return 0.0, 0, True
        plan = self.plan
        retry = self.retry
        devid = st.device.devid
        pad = 0.0
        fails = 0
        while True:
            n = self.xfer_attempts.get(devid, 0)
            self.xfer_attempts[devid] = n + 1
            if not plan.transfer_fails(devid, n, direction):
                return pad, fails, True
            pad += t_x  # the failed attempt still occupied the link
            fails += 1
            if fails > retry.max_retries:
                self.emit_fault(
                    FaultKind.TRANSFER_FAIL,
                    st,
                    start_t + pad,
                    chunk=chunk,
                    stage=direction,
                    detail=f"gave up after {fails} attempts",
                )
                return pad, fails - 1, False
            self.emit_fault(
                FaultKind.RETRY,
                st,
                start_t + pad,
                chunk=chunk,
                stage=direction,
                detail=f"attempt {fails} failed",
            )
            pad += retry.backoff(fails - 1)

    # -- barriers ------------------------------------------------------------

    def park(self, st: DeviceState, t: float) -> None:
        """The one way the engine parks ``st`` at a barrier (at ``t``): the
        count lets :meth:`maybe_release_barrier` skip the scan."""
        st.at_barrier = t
        self.parked += 1
        self.maybe_release_barrier()

    def maybe_release_barrier(self) -> None:
        """Re-check the barrier (a device just parked, drained or died).

        Once every device that can still work is parked, charge the
        barrier waits and ``wake`` each parked device at the release time
        (the slowest arrival).
        """
        if not self.parked or any(
            not s.done and s.at_barrier is None for s in self.states
        ):
            return
        self.parked = 0
        waiting = [s for s in self.states if s.at_barrier is not None]
        t_rel = max(s.at_barrier for s in waiting)  # type: ignore[type-var]
        for s in waiting:
            if self.traced and t_rel > s.at_barrier:  # type: ignore[operator]
                self.obs.span(
                    _sp.SPAN_BARRIER, _sp.CAT_STAGE, s.device.devid,
                    s.device.name, s.at_barrier, t_rel,
                )
            s.trace.barrier_s += t_rel - s.at_barrier  # type: ignore[operator]
            s.at_barrier = None
            self.wake(s, t_rel)
        self.scheduler.at_barrier()

    # -- per-chunk transition accounting --------------------------------------

    def _emit_decision(
        self, st: DeviceState, t0: float, t1: float, took: float, **args: Any
    ) -> None:
        """The scheduler-decision span and its two metrics (traced runs)."""
        dn = st.device.name
        self.obs.span(
            _sp.SPAN_SCHED, _sp.CAT_SCHED, st.device.devid, dn, t0, t1, **args
        )
        self.met.observe(
            "sched_decision_s", took,
            device=dn, algorithm=self.scheduler.notation,
        )
        self.met.inc("sched_decisions", 1.0, device=dn)

    def _record_event(
        self, st: DeviceState, tm: StageTiming, clip_t: float | None = None
    ) -> None:
        """Append this chunk's :class:`ChunkEvent`; a dropped chunk's spans
        are clipped to ``clip_t``, the time its device died."""
        stamps = (
            tm.in_start, tm.in_end, tm.comp_start, tm.comp_end,
            tm.out_start, tm.out_end,
        )
        if clip_t is not None:
            stamps = tuple(min(t, clip_t) for t in stamps)
        self.events.append(
            ChunkEvent(
                st.device.devid, st.device.name, tm.chunk, tm.acquire_t,
                *stamps,
                status=(
                    "dropped" if tm.dropped else "ok" if tm.ok else "failed"
                ),
                retries=tm.retried,
            )
        )

    def drop_chunk(self, st: DeviceState, tm: StageTiming, drop_t: float) -> None:
        """``-> lost``: the device died before this chunk's outputs returned."""
        tm.advance(ChunkPhase.LOST)
        st.trace.faults += 1
        if self.record_events:
            self._record_event(st, tm, drop_t)
        self.mark_lost(
            st,
            drop_t,
            FaultKind.DROPOUT,
            chunk=tm.chunk,
            detail="chunk in flight was lost",
        )
        self.add_orphan(tm.chunk, drop_t)

    def account_chunk(self, st: DeviceState, tm: StageTiming) -> None:
        """Charge the overhead buckets and emit this chunk's stage spans.

        Runs for a chunk whose retries were exhausted and, in a traced or
        recorded run, from :meth:`commit_chunk` — the bucket/ span
        structure mirrors exactly what the pre-core engine charged, which
        the obs equivalence tests pin against the legacy traces.
        """
        tr = st.trace
        tr.setup_s += tm.t_setup
        tr.sched_s += tm.t_sched
        tr.retry_s += tm.pad_in + tm.pad_out
        retried = tm.retries_in + tm.retries_out
        tr.retries += retried
        moved = (tm.bytes_in if tm.in_ok else 0.0) + (
            tm.bytes_out if tm.in_ok and tm.out_ok and not tm.dropped else 0.0
        )
        elided = tm.elided_in + tm.elided_out
        self.bytes_moved += moved
        self.bytes_elided += elided

        if self.traced:
            obs = self.obs
            met = self.met
            devid = st.device.devid
            dn = st.device.name
            chunk = tm.chunk
            ck = (chunk.start, chunk.stop)
            self._emit_decision(
                st, tm.acquire_t, tm.acquire_t + tm.t_sched, tm.t_sched,
                chunk=ck,
            )
            if tm.t_setup > 0.0:
                obs.span(
                    _sp.SPAN_SETUP, _sp.CAT_SCHED, devid, dn,
                    tm.acquire_t + tm.t_sched,
                    tm.acquire_t + tm.t_sched + tm.t_setup,
                )
            if tm.pad_in > 0.0:
                obs.span(
                    _sp.SPAN_RETRY, _sp.CAT_FAULT, devid, dn,
                    tm.in_start, tm.in_start + tm.pad_in,
                    stage="in", retries=tm.retries_in, chunk=ck,
                )
            if tm.pad_out > 0.0:
                obs.span(
                    _sp.SPAN_RETRY, _sp.CAT_FAULT, devid, dn,
                    tm.out_start, tm.out_start + tm.pad_out,
                    stage="out", retries=tm.retries_out, chunk=ck,
                )
            if retried:
                met.inc("transfer_retries", retried, device=dn)
            if tm.in_ok:
                if tm.t_in > 0.0:
                    args = {"bytes": tm.bytes_in, "chunk": ck}
                    if tm.elided_in > 0.0:
                        args["elided"] = tm.elided_in
                    obs.span(
                        _sp.SPAN_XFER_IN, _sp.CAT_STAGE, devid, dn,
                        tm.in_end - tm.t_in, tm.in_end, **args,
                    )
                if tm.t_comp > 0.0:
                    obs.span(
                        _sp.SPAN_COMPUTE, _sp.CAT_STAGE, devid, dn,
                        tm.comp_start, tm.comp_end,
                        iters=len(chunk), chunk=ck,
                    )
            if tm.ok and tm.t_out > 0.0:
                args = {"bytes": tm.bytes_out, "chunk": ck}
                if tm.elided_out > 0.0:
                    args["elided"] = tm.elided_out
                obs.span(
                    _sp.SPAN_XFER_OUT, _sp.CAT_STAGE, devid, dn,
                    tm.out_end - tm.t_out, tm.out_end, **args,
                )
            met.inc("bytes_moved", moved, device=dn)
            if elided > 0.0:
                met.inc("bytes_elided", elided, device=dn)

        if self.record_events:
            self._record_event(st, tm)

    def fail_chunk(self, st: DeviceState, tm: StageTiming) -> bool:
        """``-> requeue`` (and maybe ``-> quarantine``) after exhausted
        retries: the chunk's outputs never returned, the chunk is handed
        back for reassignment, and the device's health streak is charged.

        Returns True when this fault quarantined the device (the caller
        must not schedule it again).
        """
        tm.advance(ChunkPhase.REQUEUE)
        tr = st.trace
        tr.faults += 1
        if tm.in_ok:  # copy-in and compute did happen
            tr.xfer_in_s += tm.t_in
            tr.compute_s += tm.t_comp
        if self.residency is not None:
            # The charge marked rows valid, but the chunk's pipeline never
            # completed (its outputs never returned): conservatively drop
            # those marks so later reads re-pay instead of under-charging.
            self.residency.forget_chunk(st.device.devid, self.kernel, tm.chunk)
        self.add_orphan(tm.chunk, tm.out_end)
        if self.health.record_failure(st.device.devid):
            tm.advance(ChunkPhase.QUARANTINE)
            self.mark_lost(
                st,
                tm.out_end,
                FaultKind.QUARANTINE,
                chunk=tm.chunk,
                detail=(
                    f"{self.health.consecutive_faults(st.device.devid)} "
                    "consecutive chunk faults"
                ),
            )
            return True
        tm.advance(ChunkPhase.REQUEST)  # pipeline torn down; resume serially
        return False

    def commit_chunk(
        self,
        st: DeviceState,
        tm: StageTiming,
        t_in: float,
        t_comp: float,
        t_out: float,
    ) -> None:
        """``xfer_out -> observe -> done``: the chunk completed, its three
        stages taking ``t_in``, ``t_comp`` and ``t_out`` seconds.

        Charges the overhead and stage buckets (through
        :meth:`account_chunk` in a traced or recorded run, which also
        emits the chunk's spans), counts coverage, executes the kernel
        numerically (exactly once per covered chunk; a span-exact kernel's
        rows are only recorded, for :meth:`finalize`) and feeds a
        scheduler that overrides ``observe`` with the chunk's elapsed time.
        """
        tm.advance(_OBSERVE, _DONE)
        tr = st.trace
        if self.loud:
            self.account_chunk(st, tm)
        else:  # account_chunk's buckets, less the adds of a known 0.0
            if tm.t_setup:
                tr.setup_s += tm.t_setup
            tr.sched_s += tm.t_sched
            if self.plan_active:
                tr.retry_s += tm.pad_in + tm.pad_out
                tr.retries += tm.retries_in + tm.retries_out
            if self.residency is not None:
                self.bytes_moved += tm.bytes_in + tm.bytes_out
                self.bytes_elided += tm.elided_in + tm.elided_out
        chunk = tm.chunk
        iters = chunk.stop - chunk.start
        tr.xfer_in_s += t_in
        tr.xfer_out_s += t_out
        tr.compute_s += t_comp
        tr.chunks += 1
        tr.iters += iters
        if self.traced:
            dn = st.device.name
            self.obs.instant(
                _sp.MARK_CHUNK, _sp.CAT_MARK, st.device.devid, dn, tm.out_end,
                iters=iters, chunk=(chunk.start, chunk.stop),
                retries=tm.retried,
            )
            self.met.inc("chunks_issued", 1.0, device=dn)
            self.met.inc("iterations", iters, device=dn)
            self.met.observe(
                "chunk_iters", iters, device=dn,
                buckets=_CHUNK_SIZE_BUCKETS,
            )
        if self.plan_active:
            self.health.record_success(st.device.devid)

        if self.spans is not None:
            self.spans.append((chunk.start, chunk.stop))
        elif self.execute_numerically:
            partial = self.kernel.execute_chunk(chunk)
            if self.reduces and partial is not None:
                self.reduction = self.kernel.combine(self.reduction, partial)

        if self.observes:
            self.scheduler.observe(st.device.devid, chunk, t_in + t_comp + t_out)

    # -- finalisation ---------------------------------------------------------

    def finalize(self) -> OffloadResult:
        """Coverage check, closing barrier, obs flush, result assembly.

        The offload ends when its slowest participating device finishes.
        """
        kernel = self.kernel
        scheduler = self.scheduler
        states = self.states
        covered = sum(s.trace.iters for s in states)
        if covered != kernel.n_iters:
            lost = [s.device.name for s in states if s.lost]
            if self.plan_active and lost:
                raise FaultError(
                    f"{scheduler.notation} covered {covered} of "
                    f"{kernel.n_iters} iterations; devices lost: "
                    f"{', '.join(lost)}; {len(self.orphans)} orphaned chunks "
                    "were never adopted"
                )
            raise OffloadError(
                f"{scheduler.notation} covered {covered} of "
                f"{kernel.n_iters} iterations"
            )
        if self.spans:
            self._execute_spans()

        participating = [s for s in states if s.trace.chunks > 0]
        total = max([s.finish for s in participating], default=0.0)
        for s in participating:
            # Closing barrier: everyone alive waits for the slowest device
            # (lost devices never rejoin).
            if not s.lost:
                if self.traced and total > s.finish:
                    self.obs.span(
                        _sp.SPAN_BARRIER, _sp.CAT_STAGE, s.device.devid,
                        s.device.name, s.finish, total,
                    )
                s.trace.barrier_s += total - s.finish
            s.trace.finish_s = s.finish

        if self.traced:
            obs = self.obs
            met = self.met
            for s in participating:
                obs.instant(
                    _sp.MARK_FINISH, _sp.CAT_MARK, s.device.devid,
                    s.device.name, s.finish,
                )
            for f in self.faults:
                obs.instant(
                    f"fault:{f.kind.value}", _sp.CAT_FAULT, f.devid,
                    f.device_name, f.t,
                    stage=f.stage, detail=f.detail,
                    chunk=(
                        (f.chunk.start, f.chunk.stop)
                        if f.chunk is not None else None
                    ),
                )
                met.inc(
                    "fault_events", 1.0,
                    kind=f.kind.value, device=f.device_name,
                )
                if f.kind is FaultKind.QUARANTINE:
                    met.inc("quarantines", 1.0, device=f.device_name)
            obs.span(
                _sp.SPAN_OFFLOAD, _sp.CAT_OFFLOAD, -1, "", 0.0, total,
                kernel=kernel.name, algorithm=scheduler.describe(),
                machine=self.machine.name, seed=self.seed,
            )
            obs.meta.update(
                kernel=kernel.name,
                algorithm=scheduler.describe(),
                machine=self.machine.name,
                seed=self.seed,
            )

        meta: dict = {"seed": self.seed, "machine": self.machine.name}
        if self.residency is not None:
            # Only region-scoped runs carry this key: no-region results
            # stay pickle-identical to the pre-ledger engine.
            meta["residency"] = {
                "bytes_moved": self.bytes_moved,
                "bytes_elided": self.bytes_elided,
            }
        if self.plan_active:
            meta["faults"] = {
                "plan": self.plan.describe(),
                "events": len(self.faults),
                "retries": sum(
                    1 for f in self.faults if f.kind is FaultKind.RETRY
                ),
                "lost": sorted(s.device.name for s in states if s.lost),
                "quarantined": sorted(
                    states[d].device.name for d in self.health.quarantined
                ),
            }
        return OffloadResult(
            kernel_name=kernel.name,
            algorithm=scheduler.describe(),
            total_time_s=total,
            traces=[s.trace for s in states],
            reduction=self.reduction if self.reduces else None,
            meta=meta,
        )

    def _execute_spans(self) -> None:
        """One ``execute_chunk`` per run of sorted, contiguous rows —
        whichever devices committed them — while rows x every map's row
        bytes stays within ``_SPAN_CAP_BYTES`` (a chunk is never split)."""
        kernel = self.kernel
        maps = kernel.effective_maps()
        cap = _SPAN_CAP_BYTES // (sum(kernel.row_nbytes(m.name) for m in maps) or 1)
        (a, b), *rest = sorted(self.spans)
        for start, stop in rest:
            if start == b and stop - a <= cap:
                b = stop
                continue
            kernel.execute_chunk(IterRange(a, b))
            a, b = start, stop
        kernel.execute_chunk(IterRange(a, b))

    @property
    def timeline(self) -> Timeline:
        return Timeline(events=list(self.events), faults=list(self.faults))


# ---------------------------------------------------------------------------
# Engine base: the option set, run-slot guard and last-run introspection
# ---------------------------------------------------------------------------

@dataclass
class EngineBase:
    """The engine options, the re-entrancy guard and last-run introspection.

    The fields below are *the* declaration of the shared engine option
    set: :class:`~repro.engine.simulator.OffloadEngine` inherits them
    (adding its pipeline knobs), :func:`make_backend` and
    :meth:`configured` check options against ``dataclasses.fields``, and
    :meth:`_run_context` hands them to the shared :class:`RunContext`.

    Engine instances are reusable but not concurrently so: each ``run()``
    takes the run gate (:meth:`_run_slot`) and only then builds a fresh
    :class:`RunContext`, and a second ``run()`` entered while one is still
    in flight raises :class:`~repro.errors.EngineBusyError` before it has
    touched anything — the scheduler it was handed included — instead of
    silently corrupting shared accounting.
    """

    machine: MachineSpec
    seed: int = 0
    execute_numerically: bool = True
    record_events: bool = False
    #: Faults to inject (None or an empty plan = fault-free run).  Times
    #: are virtual seconds.
    fault_plan: FaultPlan | None = None
    #: Retry/quarantine behaviour under the fault plan.
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    #: Observability sink (:mod:`repro.obs`).  The default null tracer is
    #: permanently disabled; the hot loop reads its ``enabled`` flag once
    #: per run, so untraced offloads pay no per-chunk cost.
    tracer: Tracer | NullTracer = NULL_TRACER
    #: Residency view of an enclosing target-data region (None outside one).
    #: When set, per-chunk transfer bytes are the *delta* between what the
    #: chunk touches and what the placement already made resident.
    residency: RegionResidency | None = None

    # Deliberately *not* annotated: an annotated class attribute here
    # would become a dataclass field.
    _run_ctx = None

    def _run_context(
        self,
        kernel: LoopKernel,
        scheduler: LoopScheduler,
        cutoff_ratio: float,
        **differs: Any,
    ) -> "RunContext":
        """Build the :class:`RunContext` of one run on this engine (inside
        :meth:`_run_slot`) and expose it to last-run introspection.

        The shared options come from the fields above; a run passes only
        what differs (``carry_in``, a per-request ``execute_numerically``).
        """
        options = {name: getattr(self, name) for name in _SHARED_OPTIONS}
        options.update(differs)
        core = self._run_ctx = RunContext(
            kernel=kernel, scheduler=scheduler, cutoff_ratio=cutoff_ratio, **options
        )
        return core

    @property
    def busy(self) -> bool:
        """Whether a ``run()`` is currently in flight on this engine."""
        lock = self.__dict__.get("_run_gate")
        return lock is not None and lock.locked()

    @contextmanager
    def configured(self, **options: Any):
        """Temporarily override engine fields for one leased run.

        The pool-safety hook behind engine reuse (:mod:`repro.service`):
        a pooled engine is built once with its base configuration, and the
        exclusive lease holder overrides per-job knobs (seed, fault plan,
        tracer, ...) for the duration of the ``with`` block; every
        override is restored on exit, success or raise.  Option semantics
        mirror :func:`make_backend`: an option the engine has no field for
        is rejected, and ``machine`` can never be overridden (engines are
        bound to one machine).

        Requires exclusive ownership — entering while a run is in flight
        raises :class:`~repro.errors.EngineBusyError` (best effort; the
        ``run()`` gate stays the authoritative guard).
        """
        if self.busy:
            raise EngineBusyError(
                f"{type(self).__name__} instance is mid-run; configure a "
                "pooled engine only while holding its exclusive lease"
            )
        if "machine" in options:
            raise OffloadError(
                "configured() cannot rebind an engine's machine; "
                "pool one engine per machine instead"
            )
        saved: dict[str, Any] = {}
        try:
            for key, value in _checked_options(type(self), options).items():
                saved[key] = getattr(self, key)
                setattr(self, key, value)
            yield self
        finally:
            for key, value in saved.items():
                setattr(self, key, value)

    def _run_slot(self) -> threading.Lock:
        """Take the run gate for the whole of one ``run``/``run_many`` and
        return it, held: the caller releases it in a ``finally``.

        Every entry point takes it *before* it builds a
        :class:`RunContext` (whose constructor restarts the scheduler), so
        a refused run has touched nothing.  The last run's context is
        forgotten on entry; :meth:`_run_context` installs the new one.
        """
        lock = self.__dict__.get("_run_gate")
        if lock is None:
            # setdefault is atomic under the GIL: exactly one lock survives.
            lock = self.__dict__.setdefault("_run_gate", threading.Lock())
        if not lock.acquire(blocking=False):
            raise EngineBusyError(
                f"{type(self).__name__} instance is already running an "
                "offload; engines are reusable sequentially, not "
                "concurrently — create one engine per in-flight run"
            )
        self._run_ctx = None
        return lock

    @property
    def timeline(self) -> Timeline:
        """Chunk-event timeline of the last run (record_events=True)."""
        if self._run_ctx is None:
            return Timeline(events=[], faults=[])
        return self._run_ctx.timeline


def _checked_options(cls: type, options: dict[str, Any]) -> dict[str, Any]:
    """``options``, once every key is a field of engine class ``cls`` and
    a ``seed`` among them is an int."""
    names = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(options) - names)
    if unknown:
        raise OffloadError(
            f"{cls.__name__} has no option {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(names - {'machine'}))}"
        )
    seed = options.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise OffloadError(f"seed must be an int, got {seed!r}")
    return options


#: The option set, read off its one declaration (machine included).
_SHARED_OPTIONS = tuple(f.name for f in dataclass_fields(EngineBase))


def make_backend(spec: "str | type", machine: MachineSpec, **options: Any):
    """Build an engine over ``machine`` with ``options``.

    ``spec`` is ``"virtual"`` or ``"batch"`` (both name
    :class:`~repro.engine.simulator.OffloadEngine`) or an ``OffloadEngine``
    subclass.  Anything else, and any option the engine has no field for,
    raises :class:`~repro.errors.OffloadError`.
    """
    from repro.engine.simulator import OffloadEngine

    cls = OffloadEngine if spec in ("virtual", "batch") else spec
    if not (isinstance(cls, type) and issubclass(cls, OffloadEngine)):
        raise OffloadError(
            f"unknown engine {spec!r}; pass 'virtual' or an OffloadEngine "
            "subclass"
        )
    return cls(machine=machine, **_checked_options(cls, options))
