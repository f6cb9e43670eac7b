"""Service throughput: direct calls vs engine pooling vs batch coalescing.

The perf artifact for ``repro.service``: one deterministic 10k-job plan
(vectorizable-heavy policy mix, three tenants, two workload templates)
is served three ways and the measured jobs/sec land in
``benchmarks/results/service_throughput.json``:

* ``direct``  — the no-service baseline: a plain loop of
  ``parallel_for`` calls, one fresh runtime-bound engine per job.
* ``pooled``  — the service with coalescing off: admission, weighted-fair
  queueing, and reusable pooled engines, one job per engine lease.
* ``coalesced`` — the full service: compatible queued jobs grouped into
  single ``OffloadEngine.run_many`` calls.

Coalescing's win is structural: a batch pays kernel construction and
numeric execution once per (workload, seed) group where the pooled path
pays them once per job, and one executor round-trip serves the whole
group.  Results stay byte-identical to direct ``parallel_for`` calls
(pinned exhaustively by ``tests/service/test_determinism.py``; spot
checked here), so the CI floor asserts coalesced > pooled jobs/sec with
nothing traded away.

``REPRO_SERVICE_BENCH_JOBS`` overrides the plan size (the acceptance
artifact uses the default 10000; CI smoke may shrink it).
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import time

from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime
from repro.service import (
    OffloadService,
    TenantQuota,
    TrafficSpec,
    WorkloadTemplate,
    plan_traffic,
    run_load,
)

JOBS = int(os.environ.get("REPRO_SERVICE_BENCH_JOBS", "10000"))
POOL_SIZE = 2

SPEC = TrafficSpec(
    jobs=JOBS,
    seed=2026,
    tenants={"a": 2.0, "b": 1.0, "c": 1.0},
    templates=(
        WorkloadTemplate("axpy", 2048, seed=1),
        WorkloadTemplate("axpy", 2048, seed=2),
    ),
    # vectorizable-heavy mix with a dynamic minority that must run solo
    policies=("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO",
              "SCHED_PROFILE_AUTO", "SCHED_DYNAMIC"),
    mean_interarrival_s=0.0,
)


def _direct_seconds(machine, plan):
    """Baseline: no service, one parallel_for call per planned job."""
    runtimes = {}
    t0 = time.perf_counter()
    for arrival in plan:
        job = arrival.job
        rt = runtimes.get(job.seed)
        if rt is None:
            rt = runtimes[job.seed] = HompRuntime(machine, seed=job.seed)
        rt.parallel_for(
            job.factory(),
            schedule=job.policy,
            cutoff_ratio=job.cutoff_ratio,
        )
    return time.perf_counter() - t0


def _served_report(machine, plan, *, coalesce):
    async def main():
        async with OffloadService(
            machine,
            pool_size=POOL_SIZE,
            coalesce=coalesce,
            use_cache=False,
            queue_capacity=len(plan) + 1,
            default_quota=TenantQuota(max_in_flight=len(plan)),
        ) as svc:
            return await run_load(svc, plan)

    return asyncio.run(main())


def _spot_check(machine, plan, stride):
    """Every stride-th job must byte-match its direct parallel_for run."""
    async def main():
        async with OffloadService(
            machine, pool_size=POOL_SIZE, use_cache=False,
            default_quota=TenantQuota(max_in_flight=len(plan)),
        ) as svc:
            sample = plan[::stride]
            handles = [await svc.submit(a.job) for a in sample]
            return await asyncio.gather(*(h.wait() for h in handles))

    for res in asyncio.run(main()):
        assert res.ok, res.error
        rt = HompRuntime(machine, seed=res.job.seed)
        direct = rt.parallel_for(
            res.job.factory(), schedule=res.job.policy,
            cutoff_ratio=res.job.cutoff_ratio,
        )
        assert pickle.dumps(res.result) == pickle.dumps(direct), res.job.tag


def test_service_throughput(results_dir):
    machine = gpu4_node()
    plan = plan_traffic(SPEC)
    assert len(plan) == JOBS

    # Warm kernel-input pools so no mode pays one-time generation costs.
    for template in SPEC.templates:
        template()

    direct_s = _direct_seconds(machine, plan)
    pooled = _served_report(machine, plan, coalesce=False)
    coalesced = _served_report(machine, plan, coalesce=True)

    for name, report in (("pooled", pooled), ("coalesced", coalesced)):
        assert report.completed == JOBS, (name, report.to_dict())
        assert report.failed == report.rejected == 0, (name, report.to_dict())
        assert report.lost == report.duplicated == 0, (name, report.to_dict())
    assert pooled.coalesce_ratio == 0.0
    assert coalesced.coalesce_ratio > 0.0

    _spot_check(machine, plan, stride=max(1, JOBS // 50))

    artifact = {
        "plan": {
            "jobs": JOBS,
            "seed": SPEC.seed,
            "tenants": SPEC.tenant_weights(),
            "templates": [t.fingerprint() for t in SPEC.templates],
            "policies": list(SPEC.policies),
        },
        "pool_size": POOL_SIZE,
        "cpus": os.cpu_count(),
        "modes": {
            "direct": {
                "seconds": round(direct_s, 4),
                "jobs_per_s": round(JOBS / direct_s, 2),
            },
            "pooled": {
                "seconds": round(pooled.duration_s, 4),
                "jobs_per_s": round(pooled.jobs_per_s, 2),
                "p50_latency_s": round(pooled.p50_latency_s, 6),
                "p99_latency_s": round(pooled.p99_latency_s, 6),
            },
            "coalesced": {
                "seconds": round(coalesced.duration_s, 4),
                "jobs_per_s": round(coalesced.jobs_per_s, 2),
                "p50_latency_s": round(coalesced.p50_latency_s, 6),
                "p99_latency_s": round(coalesced.p99_latency_s, 6),
                "coalesce_ratio": round(coalesced.coalesce_ratio, 4),
                "batches": coalesced.batches,
            },
        },
        "speedup": {
            "coalesced_vs_pooled": round(
                coalesced.jobs_per_s / pooled.jobs_per_s, 3
            ),
        },
    }
    (results_dir / "service_throughput.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    print("\n" + json.dumps(artifact, indent=2))

    # CI floor: batching compatible jobs must beat serving them one by one.
    assert coalesced.jobs_per_s > pooled.jobs_per_s, artifact
