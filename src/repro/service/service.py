"""The offload service: an asyncio front end over the execution engines.

One :class:`OffloadService` is bound to one machine description and runs
one dispatcher coroutine.  Submissions flow::

    submit(job) --admission--> weighted-fair queue --dispatcher-->
        engine-pool lease --group task--> parallel_for(engine=...)
        | batch coalescing  --group task--> parallel_for_many(engine=...)

Threading model: one thread, the event loop's, runs everything — queue,
admission, metrics and the engine call.  The engines are
pure Python under the GIL, so a worker thread would add a hand-off but
no parallelism.  A group's task yields once, then runs to completion on
an engine it holds exclusively through the pool lease, so the run gate
(:class:`~repro.errors.EngineBusyError`) can never fire through the
service.

Determinism: a job served by the service yields an
:class:`~repro.engine.trace.OffloadResult` that pickles byte-identically
to the same arguments passed to
:meth:`~repro.runtime.runtime.HompRuntime.parallel_for` directly —
whether the job ran solo on a pooled engine or coalesced into a
``run_many`` batch.  Wall-clock *latency* stamps on the
:class:`~repro.service.job.JobResult` envelope are the only
nondeterministic fields, and they live outside the result.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.bench.runner import verify_batch, verify_result
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import OffloadResult
from repro.errors import (
    JobCancelled,
    JobExpired,
    ServiceClosedError,
    ServiceError,
)
from repro.machine.spec import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.runtime import HompRuntime
from repro.service.admission import (
    AdmissionController,
    TenantQuota,
    WeightedFairQueue,
    check_count,
)
from repro.service.coalesce import group_key, plan_group
from repro.service.job import JobHandle, JobResult, JobState, OffloadJob
from repro.service.pool import EnginePool

__all__ = ["OffloadService"]


class _Pending:
    """Internal per-job record threaded from submit to completion."""

    __slots__ = (
        "job", "handle", "ids", "group_key", "submitted_at",
        "started_at", "registry", "tracer",
    )

    def __init__(self, job: OffloadJob, handle: JobHandle,
                 ids: tuple[int, ...], gkey: "tuple | None",
                 submitted_at: float):
        self.job = job
        self.handle = handle
        self.ids = ids
        self.group_key = gkey
        self.submitted_at = submitted_at
        self.started_at = submitted_at
        self.registry = MetricsRegistry()
        self.tracer: "Tracer | None" = None


class OffloadService:
    """Async multi-tenant offload server over one machine description.

    Use as an async context manager::

        async with OffloadService(machine, pool_size=4) as svc:
            handle = await svc.submit(OffloadJob(factory, policy="BLOCK"))
            result = (await handle).unwrap()

    ``backend`` is the :class:`~repro.engine.simulator.OffloadEngine`
    subclass the pool builds its engines from (anything else raises
    :class:`TypeError`).  Coalescible jobs share one ``run_many`` call on
    a pooled engine; ``coalesce=False`` disables batching entirely;
    ``max_batch`` caps how
    many queued mates one batch may absorb.  ``clock`` is the monotonic
    time source for admission token buckets and latency stamps
    (injectable for deterministic tests).  Every job is computed: there
    is no result cache, and ``use_cache`` accepts only ``False``.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        backend: "type[OffloadEngine]" = OffloadEngine,
        pool_size: int = 4,
        coalesce: bool = True,
        max_batch: int = 16,
        queue_capacity: int = 1024,
        quotas: "dict[str, TenantQuota] | None" = None,
        default_quota: TenantQuota | None = None,
        use_cache: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        # ``use_cache=False`` is still accepted because the perf harness
        # passes it; the keyword goes when the harness drops it, together
        # with the "batch" engine alias (ROADMAP item 1(d)).
        if use_cache:
            raise TypeError(
                f"OffloadService has no result cache; use_cache={use_cache!r}"
            )
        check_count("pool_size", pool_size)
        check_count("max_batch", max_batch)
        if not (isinstance(backend, type) and issubclass(backend, OffloadEngine)):
            raise TypeError(
                f"backend= takes an OffloadEngine subclass, got {backend!r}"
            )
        self.machine = machine
        self.backend = backend
        self.pool_size = pool_size
        self.coalesce = coalesce
        self.max_batch = max_batch
        self._clock = clock
        self._admission = AdmissionController(
            quotas=quotas,
            default_quota=default_quota,
            queue_capacity=queue_capacity,
            clock=clock,
        )
        self._wfq = WeightedFairQueue(
            weight_of=lambda tenant: self._admission.quota(tenant).weight,
            priority_of=lambda rec: rec.job.priority,
        )
        self.metrics = MetricsRegistry()
        self._runtime = HompRuntime(machine)  # device-selection helper only
        self._running = False
        self._accepting = False
        self._unfinished = 0
        self._pool: EnginePool | None = None
        self._dispatcher: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._inflight_tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "OffloadService":
        if self._running:
            raise ServiceError("service is already running")
        self._pool = EnginePool(
            self.machine, size=self.pool_size, backend=self.backend
        )
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._running = True
        self._accepting = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def drain(self) -> None:
        """Wait until every admitted job has completed."""
        assert self._idle is not None
        await self._idle.wait()

    async def close(self, *, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) finish queued work first.

        ``drain=False`` fails still-queued jobs with
        :class:`~repro.errors.ServiceClosedError` but always waits for
        jobs already on an engine.
        """
        if not self._running:
            return
        self._accepting = False
        if drain:
            await self.drain()
        assert self._dispatcher is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        while len(self._wfq):
            self._fail(
                [self._wfq.pop()[1]],
                ServiceClosedError("service closed before the job ran"),
            )
        if self._inflight_tasks:
            await asyncio.gather(*self._inflight_tasks, return_exceptions=True)
        self._running = False

    async def __aenter__(self) -> "OffloadService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- submission ------------------------------------------------------------

    async def submit(self, job: OffloadJob) -> JobHandle:
        """Validate, admit and enqueue ``job``; returns an awaitable handle.

        Raises :class:`~repro.errors.JobSpecError` on a malformed job,
        :class:`~repro.errors.AdmissionError` when the tenant is over
        quota (with a Retry-After hint), and
        :class:`~repro.errors.ServiceClosedError` when the service is not
        accepting work.
        """
        if not (self._running and self._accepting):
            raise ServiceClosedError("service is not running")
        job.validate()
        ids = tuple(self._runtime.select_devices(job.devices))
        try:
            self._admission.admit(job.tenant)
        except Exception as exc:
            reason = getattr(exc, "reason", "error")
            self.metrics.inc(
                "service_admission_rejections", tenant=job.tenant,
                reason=reason,
            )
            raise
        now = self._clock()
        loop = asyncio.get_running_loop()
        handle = JobHandle(job, loop.create_future(), submitted_at=now)
        rec = _Pending(
            job, handle, ids,
            gkey=group_key(job, ids) if self.coalesce else None,
            submitted_at=now,
        )
        handle._cancel = lambda: self._cancel_queued(rec)
        self._wfq.push(job.tenant, rec)
        self._unfinished += 1
        assert self._idle is not None and self._wake is not None
        self._idle.clear()
        self.metrics.inc("service_jobs_submitted", tenant=job.tenant)
        self.metrics.set_gauge("service_queue_depth", float(len(self._wfq)))
        self._wake.set()
        return handle

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while True:
            if not len(self._wfq):
                self._wake.clear()
                await self._wake.wait()
                continue
            _, rec = self._wfq.pop()
            self.metrics.set_gauge("service_queue_depth", float(len(self._wfq)))
            group = [rec]
            try:
                await self._dispatch(group)
            except asyncio.CancelledError:
                # The dispatcher was torn down while this job waited for a
                # slot: fail it visibly instead of losing it.
                self._fail(
                    group,
                    ServiceClosedError("service closed before the job ran"),
                )
                raise
            except Exception as exc:
                # A raise before the group task (say, an engine that cannot
                # be built) fails that job; the queue behind it is served.
                self._fail(group, exc)

    async def _dispatch(self, group: "list[_Pending]") -> None:
        """Serve the popped ``group[0]``: expire it, or lease an engine,
        gather its mates into ``group`` and start the group's task."""
        assert self._pool is not None
        rec = group[0]
        if self._expired(rec):
            return
        engine = await self._pool.acquire(rec.ids)
        if rec.group_key is not None and self.max_batch > 1:
            # Mates are collected *after* the (possibly long) wait for
            # a pool slot, so a saturated service naturally forms
            # larger batches from the queue that built up meanwhile.
            key = rec.group_key
            mates = self._wfq.pop_matching(
                lambda r: r.group_key == key, self.max_batch - 1
            )
            for _, mate in mates:
                if not self._expired(mate):
                    group.append(mate)
            self.metrics.set_gauge(
                "service_queue_depth", float(len(self._wfq))
            )
        task = asyncio.create_task(self._run_group(group, engine))
        self._inflight_tasks.add(task)
        task.add_done_callback(self._inflight_tasks.discard)

    async def _run_group(
        self, group: list[_Pending], engine: OffloadEngine
    ) -> None:
        assert self._pool is not None
        started = self._clock()
        for rec in group:
            rec.started_at = started
        if len(group) == 1 and group[0].job.trace:
            group[0].tracer = Tracer(metrics=group[0].registry)
        run = self._execute_solo if len(group) == 1 else self._execute_group
        try:
            await asyncio.sleep(0)  # one turn for clients between groups
            results = run(group, engine)
            self.metrics.inc("service_engine_runs")
            if len(group) > 1:
                self.metrics.inc("service_batches")
                self.metrics.observe(
                    "service_batch_size", float(len(group)),
                    buckets=(1, 2, 4, 8, 16, 32, 64),
                )
            for rec, result in zip(group, results):
                self._complete(
                    rec, JobState.DONE, result, batch_size=len(group)
                )
        except asyncio.CancelledError:
            self._fail(group, ServiceClosedError("service shut down mid-run"))
            raise
        except BaseException as exc:
            self._fail(group, exc)
        finally:
            self._pool.release(group[0].ids, engine)

    # -- engine execution (one group per loop turn) ---------------------------

    def _execute_solo(self, group: list[_Pending],
                      engine: OffloadEngine) -> list[OffloadResult]:
        """Run one job on its leased engine."""
        (rec,) = group
        job = rec.job
        rt = HompRuntime(self.machine, seed=job.seed)
        kernel = job.factory()
        result = rt.parallel_for(
            kernel,
            schedule=job.policy,
            devices=list(rec.ids),
            cutoff_ratio=job.cutoff_ratio,
            record_events=job.record_events,
            serialize_offload=job.serialize_offload,
            fault_plan=job.fault_plan,
            resilience=job.resilience,
            tracer=rec.tracer,
            engine=engine,
        )
        if job.verify:
            verify_result(kernel, result)
        return [result]

    def _execute_group(self, group: list[_Pending],
                       engine: OffloadEngine) -> list[OffloadResult]:
        """Run one coalesced batch on a leased engine."""
        jobs = [rec.job for rec in group]
        specs = plan_group(jobs)
        rt = HompRuntime(self.machine, seed=jobs[0].seed)
        results = rt.parallel_for_many(
            specs, devices=list(group[0].ids), engine=engine
        )
        # One group is one workload (``group_key``): one share key.
        verify_batch(
            (None, spec, result)
            for job, spec, result in zip(jobs, specs, results) if job.verify
        )
        return results

    # -- completion ------------------------------------------------------------

    def _complete(self, rec: _Pending, state: JobState,
                  outcome: "OffloadResult | BaseException", *,
                  batch_size: int = 1) -> None:
        """The one completion path: resolve ``rec`` in terminal ``state``
        with its ``outcome`` (the result for ``DONE``, else the error).

        Builds the envelope, counts the outcome, releases the tenant's
        admission slot and resolves the handle — at most once per job, so
        a failure handler may sweep a whole group without double-releasing
        the members that already completed.
        """
        if rec.handle._future.done():
            return
        ok = state is JobState.DONE
        coalesced = batch_size > 1
        if ok:
            rec.registry.set_gauge("job_batch_size", float(batch_size))
            if coalesced:
                rec.registry.inc("job_coalesced")
                self.metrics.inc("service_coalesced_jobs")
        self.metrics.inc(
            "service_jobs_" + ("completed" if ok else state.value),
            tenant=rec.job.tenant,
        )
        self._admission.release(rec.job.tenant)
        self._unfinished -= 1
        if self._unfinished == 0:
            assert self._idle is not None
            self._idle.set()
        rec.handle._future.set_result(JobResult(
            job=rec.job,
            state=state,
            result=outcome if ok else None,
            error=None if ok else outcome,
            coalesced=coalesced,
            batch_size=batch_size,
            submitted_at=rec.submitted_at,
            started_at=rec.started_at,
            finished_at=self._clock(),
            metrics=rec.registry,
            tracer=rec.tracer,
        ))

    def _fail(self, group: "list[_Pending]", error: BaseException) -> None:
        for rec in group:
            self._complete(rec, JobState.FAILED, error)

    def _expired(self, rec: _Pending) -> bool:
        """Whether ``rec`` overran its queue deadline — if so it resolves
        with a typed EXPIRED result (never raising, like cancellation).

        Only undispatched jobs are asked: the deadline is checked as the
        dispatcher pops the record (and as coalescing gathers mates), so
        work already handed to an engine always runs to completion.
        """
        deadline = rec.job.deadline_s
        if deadline is None or self._clock() - rec.submitted_at < float(deadline):
            return False
        self._complete(rec, JobState.EXPIRED, JobExpired(
            f"job (tenant {rec.job.tenant!r}, tag {rec.job.tag!r}) "
            f"spent longer than its deadline of {float(deadline)}s "
            "in the queue"
        ))
        return True

    def _cancel_queued(self, rec: _Pending) -> bool:
        """Withdraw a not-yet-dispatched job (the handle's cancel hook).

        Only jobs still sitting in the weighted-fair queue can be
        withdrawn; once the dispatcher popped the record the attempt
        returns False and the job runs to completion.  A successful
        cancellation resolves the handle with a ``CANCELLED``
        :class:`~repro.service.job.JobResult` (carrying
        :class:`~repro.errors.JobCancelled`, never raising it).
        """
        if not self._wfq.remove(rec.job.tenant, rec):
            return False
        self.metrics.set_gauge("service_queue_depth", float(len(self._wfq)))
        self._complete(rec, JobState.CANCELLED, JobCancelled(
            f"job (tenant {rec.job.tenant!r}, tag {rec.job.tag!r}) "
            "was cancelled while queued"
        ))
        return True
