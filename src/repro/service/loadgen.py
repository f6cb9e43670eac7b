"""Deterministic load generator and benchmark harness for the service.

Traffic is *planned* before it is replayed: :func:`plan_traffic` expands
a :class:`TrafficSpec` into a concrete list of :class:`Arrival`\\ s using
one ``random.Random(seed)`` stream — seeded-Poisson inter-arrival gaps
punctuated by synchronized bursts, tenants and workloads drawn by
weight.  The same spec and seed always produce the same plan, job for
job, which is what lets the determinism suite compare a whole served
workload against direct ``parallel_for`` calls.

:func:`run_load` replays a plan against a running
:class:`~repro.service.service.OffloadService` (optionally honouring the
planned arrival times) and folds the outcome into a :class:`LoadReport`:
throughput, p50/p99 latency, admission rejections, coalescing counters,
and a lost/duplicate check over the jobs' correlation tags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.kernels.base import LoopKernel
from repro.kernels.registry import make_kernel
from repro.service.job import JobResult, OffloadJob

__all__ = [
    "WorkloadTemplate",
    "TrafficSpec",
    "Arrival",
    "LoadReport",
    "plan_traffic",
    "run_load",
]


@dataclass(frozen=True)
class WorkloadTemplate:
    """Picklable, fingerprintable kernel factory at an explicit size.

    It pins an exact iteration count, so service benchmarks can use
    kernels small enough to run tens of thousands of jobs, and its
    ``fingerprint()`` identity lets the service coalesce the jobs that
    build the same kernel.
    """

    kernel: str = "axpy"
    n: int = 4096
    seed: int = 0

    def __call__(self) -> LoopKernel:
        return make_kernel(self.kernel, self.n, seed=self.seed)

    def fingerprint(self) -> dict[str, Any]:
        return {"workload": self.kernel, "n": self.n, "seed": self.seed}


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of a synthetic job stream.

    ``tenants`` maps tenant name -> draw weight.  ``templates`` and
    ``policies`` are drawn per job with the same RNG stream.  Arrivals
    are exponential with mean ``mean_interarrival_s``; every
    ``burst_every`` jobs, ``burst_size`` jobs land at the same instant (a
    thundering herd for the coalescer and the fairness machinery to
    absorb).  ``seed`` fixes the whole plan.
    """

    jobs: int = 1000
    seed: int = 0
    tenants: "dict[str, float] | None" = None
    templates: tuple[WorkloadTemplate, ...] = (WorkloadTemplate(),)
    policies: tuple[str, ...] = ("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO")
    cutoff_ratio: float = 0.0
    verify: bool = True
    mean_interarrival_s: float = 0.0005
    burst_every: int = 50
    burst_size: int = 10

    def tenant_weights(self) -> dict[str, float]:
        return dict(self.tenants) if self.tenants else {"default": 1.0}


@dataclass(frozen=True)
class Arrival:
    """One planned submission: when, and what."""

    at_s: float
    job: OffloadJob


def plan_traffic(spec: TrafficSpec) -> list[Arrival]:
    """Expand ``spec`` into a deterministic arrival list (sorted by time)."""
    if spec.jobs < 1:
        raise ValueError(f"traffic spec needs >= 1 job, got {spec.jobs}")
    rng = random.Random(spec.seed)
    weights = spec.tenant_weights()
    names = sorted(weights)
    wvals = [weights[t] for t in names]
    arrivals: list[Arrival] = []
    t = 0.0
    burst_left = 0
    for i in range(spec.jobs):
        if spec.burst_every > 0 and i > 0 and i % spec.burst_every == 0:
            burst_left = spec.burst_size
        if burst_left > 0:
            burst_left -= 1  # burst jobs share the current arrival time
        elif spec.mean_interarrival_s > 0:
            t += rng.expovariate(1.0 / spec.mean_interarrival_s)
        tenant = rng.choices(names, weights=wvals, k=1)[0]
        template = spec.templates[rng.randrange(len(spec.templates))]
        policy = spec.policies[rng.randrange(len(spec.policies))]
        arrivals.append(
            Arrival(
                at_s=t,
                job=OffloadJob(
                    factory=template,
                    policy=policy,
                    tenant=tenant,
                    tag=f"job-{i}",
                    cutoff_ratio=spec.cutoff_ratio,
                    seed=template.seed,
                    verify=spec.verify,
                ),
            )
        )
    return arrivals


@dataclass
class LoadReport:
    """Outcome of one replayed plan."""

    jobs: int
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    lost: int = 0
    duplicated: int = 0
    duration_s: float = 0.0
    jobs_per_s: float = 0.0
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    coalesced_jobs: int = 0
    batches: int = 0
    coalesce_ratio: float = 0.0
    per_tenant_completed: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


async def run_load(service, arrivals: list[Arrival], *,
                   pace: bool = False) -> LoadReport:
    """Replay a plan against a running service and report the outcome.

    ``pace=True`` honours the planned arrival times with real sleeps
    (latency-under-load experiments); ``pace=False`` submits as fast as
    the service admits (throughput experiments).  Over-quota submissions
    are counted as ``rejected`` and not retried — size the service's
    quotas for the plan, or expect rejections in the report.
    """
    import asyncio
    import time

    from repro.errors import AdmissionError

    t0 = time.monotonic()
    handles = []
    rejected = 0
    clock_base = arrivals[0].at_s if arrivals else 0.0
    for arrival in arrivals:
        if pace:
            lag = (arrival.at_s - clock_base) - (time.monotonic() - t0)
            if lag > 0:
                await asyncio.sleep(lag)
        try:
            handles.append(await service.submit(arrival.job))
        except AdmissionError:
            rejected += 1
    results: list[JobResult] = list(
        await asyncio.gather(*(h.wait() for h in handles))
    )
    duration = time.monotonic() - t0

    report = LoadReport(jobs=len(arrivals), rejected=rejected)
    seen: set[str] = set()
    latencies: list[float] = []
    for res in results:
        tag = res.job.tag
        if tag in seen:
            report.duplicated += 1
        seen.add(tag)
        if res.ok:
            report.completed += 1
            report.per_tenant_completed[res.job.tenant] = (
                report.per_tenant_completed.get(res.job.tenant, 0) + 1
            )
            latencies.append(res.latency_s)
            if res.coalesced:
                report.coalesced_jobs += 1
        else:
            report.failed += 1
            if len(report.errors) < 10:
                report.errors.append(f"{tag}: {res.error!r}")
    expected = len(handles)
    report.lost = max(0, expected - len(results))
    report.duration_s = duration
    report.jobs_per_s = (
        report.completed / duration if duration > 0 else float(report.completed)
    )
    latencies.sort()
    report.p50_latency_s = _percentile(latencies, 0.50)
    report.p99_latency_s = _percentile(latencies, 0.99)
    report.batches = int(
        service.metrics.counter_value("service_batches")
    )
    report.coalesce_ratio = (
        report.coalesced_jobs / report.completed if report.completed else 0.0
    )
    return report
