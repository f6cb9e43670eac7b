"""Offload-as-a-service: an async multi-tenant job layer over the engines.

The rest of the library is call-and-wait: one caller builds a kernel,
picks a policy, and blocks in :meth:`~repro.runtime.runtime.HompRuntime.
parallel_for` until the offload resolves.  This package turns that into a
served resource.  Clients construct :class:`OffloadJob`s (a kernel
factory, a policy, a tenant identity) and ``await`` typed
:class:`JobResult`s from an :class:`OffloadService`, which

* admits or rejects each submission against per-tenant quotas (max
  in-flight jobs, a token-bucket submission rate, queue capacity) with a
  typed :class:`~repro.errors.AdmissionError` carrying a Retry-After
  hint (the load generator is open-loop and counts rejections; when to
  resubmit is the caller's policy),
* dequeues fairly across tenants (stride-based weighted fair queueing),
* multiplexes admitted jobs over a small pool of *reusable* engines
  (:class:`EnginePool`), every group run on the event loop,
  honouring the engines' exclusive-run contract (:class:`~repro.errors.EngineBusyError`
  can never fire through the pool),
* coalesces compatible queued jobs — same workload fingerprint, a
  timing-oblivious policy, no faults or tracing — into single
  :meth:`~repro.engine.simulator.OffloadEngine.run_many` batches.

The determinism contract carries over unchanged: every job's
:class:`~repro.engine.trace.OffloadResult` pickles byte-identically to
the result of calling ``parallel_for`` directly with the same arguments,
regardless of concurrency, pooling or coalescing (pinned by
``tests/service/test_determinism.py``).  See ``docs/SERVICE.md``.
"""

from repro.service.admission import (
    AdmissionController,
    TenantQuota,
    WeightedFairQueue,
)
from repro.service.coalesce import coalescible, group_key, plan_group
from repro.service.job import JobHandle, JobResult, JobState, OffloadJob
from repro.service.loadgen import (
    Arrival,
    LoadReport,
    TrafficSpec,
    WorkloadTemplate,
    plan_traffic,
    run_load,
)
from repro.service.pool import EnginePool
from repro.service.service import OffloadService

__all__ = [
    "OffloadJob",
    "JobResult",
    "JobHandle",
    "JobState",
    "TenantQuota",
    "AdmissionController",
    "WeightedFairQueue",
    "EnginePool",
    "OffloadService",
    "coalescible",
    "group_key",
    "plan_group",
    "WorkloadTemplate",
    "TrafficSpec",
    "Arrival",
    "LoadReport",
    "plan_traffic",
    "run_load",
]
