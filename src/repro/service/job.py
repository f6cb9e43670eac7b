"""Job and result types for the offload service.

An :class:`OffloadJob` is everything one offload needs, deferred: a
zero-arg kernel *factory* (the kernel itself is built when the job
runs — kernels are mutable and must not be shared between jobs),
a scheduling policy, a tenant identity for admission and fairness, and
the optional knobs :meth:`~repro.runtime.runtime.HompRuntime.parallel_for`
accepts (CUTOFF, device selection, fault plan, tracing).

A :class:`JobResult` is the typed completion record: the
:class:`~repro.engine.trace.OffloadResult` (byte-identical to a direct
``parallel_for`` call), how the job was served (coalesced batch size),
wall-clock latency stamps, and the job's isolated
per-job :class:`~repro.obs.metrics.MetricsRegistry` (plus its
:class:`~repro.obs.Tracer` when tracing was requested — exportable
through the :mod:`repro.obs.export` writers).
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.trace import OffloadResult
from repro.errors import JobSpecError, SchedulingError
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.kernels.base import LoopKernel
from repro.obs.metrics import MetricsRegistry
from repro.sched.cutoff import parse_cutoff_ratio

__all__ = ["JobState", "OffloadJob", "JobResult", "JobHandle"]


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


@dataclass
class OffloadJob:
    """One offload request, as submitted by a tenant.

    ``factory`` must build a *fresh* kernel on every call (runs mutate
    output arrays).  Factories that expose a ``fingerprint()`` identity
    (:class:`~repro.bench.workloads.WorkloadFactory`,
    :class:`~repro.service.loadgen.WorkloadTemplate`) unlock batch
    coalescing; anonymous lambdas always run alone.

    ``policy`` is a paper Table II notation string, ``"AUTO"``, or a
    scheduler/Policy instance — exactly ``parallel_for``'s ``schedule``.
    ``tag`` is an opaque caller correlation id echoed on the result.

    ``priority`` multiplies the tenant's fair-share weight for *this
    job's* dequeue charge: a priority-4 job costs its tenant a quarter
    of the stride pass a priority-1 job does, so under saturation the
    tenant's high-priority jobs are served proportionally more often.
    It never preempts running work and never jumps the within-tenant
    FIFO.  ``deadline_s`` is a queue-residency budget: a job still
    undispatched ``deadline_s`` seconds after submission resolves with a
    typed ``EXPIRED`` result instead of running (handles never raise).
    """

    factory: Callable[[], LoopKernel]
    policy: Any = "AUTO"
    tenant: str = "default"
    tag: str = ""
    priority: float = 1.0
    deadline_s: float | None = None
    cutoff_ratio: "float | str" = 0.0
    seed: int = 0
    verify: bool = True
    devices: Any = None
    fault_plan: FaultPlan | None = None
    resilience: ResiliencePolicy | None = None
    trace: bool = False
    record_events: bool = False
    serialize_offload: bool = False

    def validate(self) -> None:
        """Reject a malformed job before admission (:class:`JobSpecError`).

        Shape-level checks only — device-selection and scheduler-notation
        errors surface from the runtime with their own typed errors.
        """
        if isinstance(self.factory, LoopKernel):
            raise JobSpecError(
                "job factory is a LoopKernel instance; pass a factory that "
                "builds one per run (kernels are mutated by execution)"
            )
        if not callable(self.factory):
            raise JobSpecError(
                f"job factory must be a zero-arg callable building a "
                f"LoopKernel, got {type(self.factory).__name__}"
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise JobSpecError(
                f"job tenant must be a non-empty string, got {self.tenant!r}"
            )
        if self.cutoff_ratio != "auto":
            # The runtime's rule (HompRuntime._resolve_cutoff): a job
            # admitted here must not fail mid-run for its ratio.
            try:
                parse_cutoff_ratio(self.cutoff_ratio, "job ")
            except SchedulingError as exc:
                raise JobSpecError(str(exc)) from None
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobSpecError(f"job seed must be an int, got {self.seed!r}")
        try:
            priority = float(self.priority)
        except (TypeError, ValueError):
            raise JobSpecError(
                f"job priority must be a positive number, got "
                f"{self.priority!r}"
            ) from None
        if not 0.0 < priority < float("inf"):
            raise JobSpecError(
                f"job priority must be positive and finite, got {priority}"
            )
        if self.deadline_s is not None:
            try:
                deadline = float(self.deadline_s)
            except (TypeError, ValueError):
                raise JobSpecError(
                    f"job deadline_s must be a positive number or None, "
                    f"got {self.deadline_s!r}"
                ) from None
            if not deadline > 0.0:
                raise JobSpecError(
                    f"job deadline_s must be > 0, got {deadline}"
                )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise JobSpecError(
                f"job fault_plan must be a FaultPlan or None, got "
                f"{type(self.fault_plan).__name__}"
            )


@dataclass
class JobResult:
    """Typed completion record for one job.

    ``result`` is None exactly when ``error`` is set.  ``batch_size`` is
    the number of jobs the serving batch carried (1 for a solo run);
    ``coalesced`` is True when the job shared a
    :meth:`~repro.engine.simulator.OffloadEngine.run_many` call with others.
    ``metrics`` is the job's own isolated registry (batch/coalesce
    markers, plus the full engine span-derived metrics when the job was
    traced); ``tracer`` carries the span stream for traced jobs.
    """

    job: OffloadJob
    state: JobState
    result: OffloadResult | None = None
    error: BaseException | None = None
    coalesced: bool = False
    batch_size: int = 1
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Any = None

    @property
    def ok(self) -> bool:
        return self.state is JobState.DONE

    @property
    def cancelled(self) -> bool:
        """Whether the job was cancelled while still queued."""
        return self.state is JobState.CANCELLED

    @property
    def expired(self) -> bool:
        """Whether the job's queue deadline elapsed before dispatch."""
        return self.state is JobState.EXPIRED

    @property
    def latency_s(self) -> float:
        """Submission-to-completion wall latency."""
        return max(0.0, self.finished_at - self.submitted_at)

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before an engine picked the job up."""
        return max(0.0, self.started_at - self.submitted_at)

    def unwrap(self) -> OffloadResult:
        """The offload result, re-raising the job's failure if it has one."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class JobHandle:
    """Awaitable handle to a submitted job.

    ``await handle`` (or ``await handle.wait()``) yields the
    :class:`JobResult` — always a result object, never an exception, so
    ``asyncio.gather`` over a fleet of handles cannot be torn down by one
    failed job.  Use :meth:`JobResult.unwrap` to re-raise failures.
    """

    __slots__ = ("job", "submitted_at", "_future", "_cancel")

    def __init__(self, job: OffloadJob, future: "asyncio.Future[JobResult]",
                 submitted_at: float):
        self.job = job
        self.submitted_at = submitted_at
        self._future = future
        #: Service-installed hook removing the job from the queue; None
        #: for handles constructed outside a service.
        self._cancel: "Callable[[], bool] | None" = None

    @property
    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Withdraw the job if it is still queued.

        Returns True when the job was removed from the service queue —
        the handle then resolves with a :class:`JobResult` in state
        ``CANCELLED`` carrying :class:`~repro.errors.JobCancelled` as its
        error (``await handle`` still never raises).  Returns False when
        the job already started running, finished, or the handle is not
        service-backed: dispatched work is never torn down mid-run.
        """
        if self._future.done() or self._cancel is None:
            return False
        return self._cancel()

    async def wait(self) -> JobResult:
        return await asyncio.shield(self._future)

    def __await__(self):
        return self.wait().__await__()
