"""The offload service: an asyncio front end over the execution engines.

One :class:`OffloadService` is bound to one machine description and runs
one dispatcher coroutine.  Submissions flow::

    submit(job) --admission--> weighted-fair queue --dispatcher-->
        sweep-cache fast path
        | engine-pool lease --worker thread--> parallel_for(engine=...)
        | batch coalescing  --worker thread--> parallel_for_many(engine=...)

Threading model: *all* service state — queue, admission counters,
aggregate metrics, sweep cache — is touched only on the event-loop
thread.  Worker threads (one small :class:`~concurrent.futures.
ThreadPoolExecutor`) run exactly the CPU-bound engine call on an engine
they hold exclusively through the pool lease, so the engines' run gate
(:class:`~repro.errors.EngineBusyError`) can never fire through the
service.

Determinism: a job served by the service yields an
:class:`~repro.engine.trace.OffloadResult` that pickles byte-identically
to the same arguments passed to
:meth:`~repro.runtime.runtime.HompRuntime.parallel_for` directly —
whether the job ran solo on a pooled engine, coalesced into a
``run_many`` batch, or was served from the sweep cache.  Wall-clock
*latency* stamps on the :class:`~repro.service.job.JobResult` envelope
are the only nondeterministic fields, and they live outside the result.

Cache interop: jobs on the default device selection with a
fingerprintable factory use *the same* :func:`repro.bench.cache.
result_key` fingerprints as :func:`repro.bench.runner.run_cell` — a grid
sweep warms the cache for the service and vice versa.  Traced jobs
bypass cache reads (a hit has no spans to give) but still populate,
mirroring ``run_grid``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.bench.cache import SweepCache, get_cache, result_key
from repro.bench.runner import verify_result
from repro.engine.core import resolve_backend
from repro.engine.trace import OffloadResult
from repro.errors import (
    JobCancelled,
    JobExpired,
    ServiceClosedError,
    ServiceError,
)
from repro.machine.spec import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, obs_enabled
from repro.runtime.runtime import HompRuntime
from repro.service.admission import AdmissionController, TenantQuota, WeightedFairQueue
from repro.service.coalesce import group_key, plan_group
from repro.service.job import JobHandle, JobResult, JobState, OffloadJob
from repro.service.pool import EnginePool

__all__ = ["OffloadService"]

#: Backends whose results may touch the sweep cache (mirrors
#: ``repro.bench.runner._cacheable_executor``: deterministic virtual-time
#: artifacts only).
_CACHEABLE_BACKENDS = ("virtual", "batch")


def _backend_name(backend: "str | type") -> str:
    return getattr(resolve_backend(backend), "backend_name", None) or str(backend)


class _Pending:
    """Internal per-job record threaded from submit to completion."""

    __slots__ = (
        "job", "handle", "ids", "cache_key", "group_key", "submitted_at",
        "started_at", "registry", "effective_trace",
    )

    def __init__(self, job: OffloadJob, handle: JobHandle,
                 ids: tuple[int, ...], cache_key: "str | None",
                 gkey: "tuple | None", submitted_at: float):
        self.job = job
        self.handle = handle
        self.ids = ids
        self.cache_key = cache_key
        self.group_key = gkey
        self.submitted_at = submitted_at
        self.started_at = submitted_at
        self.registry = MetricsRegistry()
        self.effective_trace = job.trace and obs_enabled()


class OffloadService:
    """Async multi-tenant offload server over one machine description.

    Use as an async context manager::

        async with OffloadService(machine, pool_size=4) as svc:
            handle = await svc.submit(OffloadJob(factory, policy="BLOCK"))
            result = (await handle).unwrap()

    ``backend`` names the execution backend for solo jobs (``"virtual"``
    by default); coalesced batches always run on ``"batch"`` (whose
    results are byte-identical to virtual's).  ``coalesce=False``
    disables batching entirely; ``max_batch`` caps how many queued mates
    one batch may absorb.  ``cache`` is a
    :class:`~repro.bench.cache.SweepCache` (None = the process-wide one;
    ``use_cache=False`` bypasses caching regardless).  ``clock`` is the
    monotonic time source for admission token buckets and latency stamps
    (injectable for deterministic tests).
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        backend: "str | type" = "virtual",
        pool_size: int = 4,
        coalesce: bool = True,
        max_batch: int = 16,
        queue_capacity: int = 1024,
        quotas: "dict[str, TenantQuota] | None" = None,
        default_quota: TenantQuota | None = None,
        cache: SweepCache | None = None,
        use_cache: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.machine = machine
        self.backend = backend
        self.pool_size = pool_size
        self.coalesce = coalesce
        self.max_batch = max_batch
        self._clock = clock
        self._cache = cache if cache is not None else get_cache()
        self._use_cache = use_cache
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
        self._executor: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._inflight_tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "OffloadService":
        if self._running:
            raise ServiceError("service is already running")
        self._pool = EnginePool(self.machine, size=self.pool_size)
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="repro-service"
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
        assert self._dispatcher is not None and self._executor is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        while len(self._wfq):
            _, rec = self._wfq.pop()
            self._finish_error(
                rec,
                ServiceClosedError("service closed before the job ran"),
                backend=_backend_name(self.backend),
            )
        if self._inflight_tasks:
            await asyncio.gather(*self._inflight_tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
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
            cache_key=self._cache_key(job),
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

    def _cache_key(self, job: OffloadJob) -> "str | None":
        """The job's sweep-cache key, or None when it must always run.

        Exactly the conditions under which the job is equivalent to a
        ``run_cell`` cell: fingerprintable factory, concrete policy
        string, the default all-devices selection, default engine flags,
        and a concrete cutoff.  The key itself is the same
        :func:`~repro.bench.cache.result_key` call ``run_cell`` makes.
        """
        if not self._use_cache or not self._cache.enabled:
            return None
        if job.devices is not None or job.record_events or job.serialize_offload:
            return None
        if not isinstance(job.policy, str) or job.cutoff_ratio == "auto":
            return None
        fingerprint = getattr(job.factory, "fingerprint", None)
        if fingerprint is None:
            return None
        return result_key(
            self.machine,
            fingerprint(),
            job.policy,
            cutoff_ratio=float(job.cutoff_ratio),
            seed=job.seed,
            verify=job.verify,
            fault_plan=job.fault_plan,
            resilience=job.resilience,
        )

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None and self._pool is not None
        while True:
            if not len(self._wfq):
                self._wake.clear()
                await self._wake.wait()
                continue
            _, rec = self._wfq.pop()
            self.metrics.set_gauge("service_queue_depth", float(len(self._wfq)))
            if self._deadline_elapsed(rec):
                self._expire(rec)
                continue
            backend = self.backend
            if rec.group_key is not None:
                backend = "batch"
            bname = _backend_name(backend)
            if (
                rec.cache_key is not None
                and not rec.effective_trace
                and bname in _CACHEABLE_BACKENDS
            ):
                hit = self._cache.get(rec.cache_key)
                if hit is not None:
                    self._finish_cached(rec, hit, backend=bname)
                    continue
            try:
                engine = await self._pool.acquire(backend, rec.ids)
            except asyncio.CancelledError:
                # The dispatcher was torn down while this job waited for a
                # slot: fail it visibly instead of losing it.
                self._finish_error(
                    rec,
                    ServiceClosedError("service closed before the job ran"),
                    backend=bname,
                )
                raise
            group = [rec]
            if rec.group_key is not None and self.max_batch > 1:
                # Mates are collected *after* the (possibly long) wait for
                # a pool slot, so a saturated service naturally forms
                # larger batches from the queue that built up meanwhile.
                key = rec.group_key
                mates = self._wfq.pop_matching(
                    lambda r: r.group_key == key, self.max_batch - 1
                )
                for _, mate in mates:
                    if self._deadline_elapsed(mate):
                        self._expire(mate)
                    else:
                        group.append(mate)
                self.metrics.set_gauge(
                    "service_queue_depth", float(len(self._wfq))
                )
            task = asyncio.create_task(
                self._run_group(group, backend, rec.ids, engine)
            )
            self._inflight_tasks.add(task)
            task.add_done_callback(self._inflight_tasks.discard)

    async def _run_group(self, group: list[_Pending], backend: "str | type",
                         ids: tuple[int, ...], engine: Any) -> None:
        assert self._pool is not None and self._executor is not None
        started = self._clock()
        for rec in group:
            rec.started_at = started
        bname = _backend_name(backend)
        tracer = None
        if len(group) == 1 and group[0].effective_trace:
            tracer = Tracer(
                clock=resolve_backend(backend).clock,
                metrics=group[0].registry,
            )
        loop = asyncio.get_running_loop()
        try:
            if len(group) == 1:
                results = await loop.run_in_executor(
                    self._executor, self._execute_solo, group[0], engine,
                    tracer,
                )
            else:
                results = await loop.run_in_executor(
                    self._executor, self._execute_group, group, engine,
                )
        except asyncio.CancelledError:
            for rec in group:
                self._finish_error(
                    rec, ServiceClosedError("service shut down mid-run"),
                    backend=bname,
                )
            raise
        except BaseException as exc:
            for rec in group:
                self._finish_error(rec, exc, backend=bname)
        else:
            coalesced = len(group) > 1
            self.metrics.inc("service_engine_runs")
            if coalesced:
                self.metrics.inc("service_batches")
                self.metrics.observe(
                    "service_batch_size", float(len(group)),
                    buckets=(1, 2, 4, 8, 16, 32, 64),
                )
            for rec, result in zip(group, results):
                if (
                    rec.cache_key is not None
                    and bname in _CACHEABLE_BACKENDS
                ):
                    self._cache.put(rec.cache_key, result)
                self._finish_ok(
                    rec, result, backend=bname, coalesced=coalesced,
                    batch_size=len(group), tracer=tracer,
                )
        finally:
            self._pool.release(backend, ids, engine)

    # -- worker-thread execution ----------------------------------------------

    def _execute_solo(self, rec: _Pending, engine: Any,
                      tracer) -> list[OffloadResult]:
        """Run one job on its leased engine (worker thread)."""
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
            tracer=tracer,
            engine=engine,
        )
        if job.verify:
            verify_result(kernel, result)
        return [result]

    def _execute_group(self, group: list[_Pending],
                       engine: Any) -> list[OffloadResult]:
        """Run one coalesced batch on a leased batch engine (worker thread)."""
        jobs = [rec.job for rec in group]
        specs, executed = plan_group(jobs)
        rt = HompRuntime(self.machine, seed=jobs[0].seed)
        results = rt.parallel_for_many(
            specs, devices=list(group[0].ids), engine=engine
        )
        ref = None
        for job, spec, execute, result in zip(jobs, specs, executed, results):
            if job.verify and execute:
                if ref is None:
                    ref = spec.kernel.reference()
                verify_result(spec.kernel, result, ref=ref)
        return results

    # -- completion (event-loop thread) ---------------------------------------

    def _finish_cached(self, rec: _Pending, result: OffloadResult,
                       *, backend: str) -> None:
        self.metrics.inc("service_cache_hits")
        rec.registry.inc("job_cache_hit")
        self._finish_ok(
            rec, result, backend=backend, coalesced=False, batch_size=1,
            tracer=None, cache_hit=True,
        )

    def _finish_ok(self, rec: _Pending, result: OffloadResult, *,
                   backend: str, coalesced: bool, batch_size: int,
                   tracer, cache_hit: bool = False) -> None:
        rec.registry.set_gauge("job_batch_size", float(batch_size))
        if coalesced:
            rec.registry.inc("job_coalesced")
            self.metrics.inc("service_coalesced_jobs")
        self.metrics.inc("service_jobs_completed", tenant=rec.job.tenant)
        self._resolve(
            rec,
            JobResult(
                job=rec.job,
                state=JobState.DONE,
                result=result,
                backend=backend,
                coalesced=coalesced,
                batch_size=batch_size,
                cache_hit=cache_hit,
                submitted_at=rec.submitted_at,
                started_at=rec.started_at,
                finished_at=self._clock(),
                metrics=rec.registry,
                tracer=tracer,
            ),
        )

    def _finish_error(self, rec: _Pending, error: BaseException, *,
                      backend: str) -> None:
        self.metrics.inc("service_jobs_failed", tenant=rec.job.tenant)
        self._resolve(
            rec,
            JobResult(
                job=rec.job,
                state=JobState.FAILED,
                result=None,
                error=error,
                backend=backend,
                submitted_at=rec.submitted_at,
                started_at=rec.started_at,
                finished_at=self._clock(),
                metrics=rec.registry,
            ),
        )

    def _deadline_elapsed(self, rec: _Pending) -> bool:
        deadline = rec.job.deadline_s
        return (
            deadline is not None
            and self._clock() - rec.submitted_at >= float(deadline)
        )

    def _expire(self, rec: _Pending) -> None:
        """Resolve a queue-deadline overrun with a typed EXPIRED result.

        Only undispatched jobs reach here: the deadline is checked as the
        dispatcher pops the record (and as coalescing gathers mates), so
        work already handed to an engine always runs to completion.  Like
        cancellation, expiry resolves the handle — it never raises — and
        releases the tenant's admission slot.
        """
        self.metrics.inc("service_jobs_expired", tenant=rec.job.tenant)
        self._resolve(
            rec,
            JobResult(
                job=rec.job,
                state=JobState.EXPIRED,
                result=None,
                error=JobExpired(
                    f"job (tenant {rec.job.tenant!r}, tag {rec.job.tag!r}) "
                    f"spent longer than its deadline of "
                    f"{float(rec.job.deadline_s)}s in the queue"
                ),
                backend=_backend_name(self.backend),
                submitted_at=rec.submitted_at,
                started_at=rec.submitted_at,
                finished_at=self._clock(),
                metrics=rec.registry,
            ),
        )

    def _cancel_queued(self, rec: _Pending) -> bool:
        """Withdraw a not-yet-dispatched job (the handle's cancel hook).

        Only jobs still sitting in the weighted-fair queue can be
        withdrawn; once the dispatcher popped the record the attempt
        returns False and the job runs to completion.  A successful
        cancellation resolves the handle with a ``CANCELLED``
        :class:`~repro.service.job.JobResult` (carrying
        :class:`~repro.errors.JobCancelled`, never raising it) and
        releases the tenant's admission slot like any other completion.
        """
        if not self._wfq.remove(rec.job.tenant, rec):
            return False
        self.metrics.inc("service_jobs_cancelled", tenant=rec.job.tenant)
        self.metrics.set_gauge("service_queue_depth", float(len(self._wfq)))
        self._resolve(
            rec,
            JobResult(
                job=rec.job,
                state=JobState.CANCELLED,
                result=None,
                error=JobCancelled(
                    f"job (tenant {rec.job.tenant!r}, tag {rec.job.tag!r}) "
                    "was cancelled while queued"
                ),
                backend=_backend_name(self.backend),
                submitted_at=rec.submitted_at,
                started_at=rec.submitted_at,
                finished_at=self._clock(),
                metrics=rec.registry,
            ),
        )
        return True

    def _resolve(self, rec: _Pending, outcome: JobResult) -> None:
        self._admission.release(rec.job.tenant)
        self._unfinished -= 1
        if self._unfinished == 0:
            assert self._idle is not None
            self._idle.set()
        if not rec.handle._future.done():
            rec.handle._future.set_result(outcome)

    # -- introspection ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def queue_depth(self) -> int:
        return len(self._wfq)

    def coalesce_ratio(self) -> float:
        """Fraction of completed jobs that rode a coalesced batch."""
        done = sum(
            c.value for c in self.metrics.counters()
            if c.name == "service_jobs_completed"
        )
        if not done:
            return 0.0
        return self.metrics.counter_value("service_coalesced_jobs") / done

    def pool_stats(self) -> dict[str, int]:
        return self._pool.stats() if self._pool is not None else {}
