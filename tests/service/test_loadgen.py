"""Load-generator determinism and the end-to-end loadgen smoke.

The smoke is the CI gate from the service acceptance criteria: replay a
seeded plan (``REPRO_LOADGEN_JOBS`` jobs, default 300; CI sets 1000)
against a live service and require zero lost and zero duplicated jobs
and a strictly positive coalesce ratio.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.service import (
    OffloadJob,
    OffloadService,
    TenantQuota,
    TrafficSpec,
    WorkloadTemplate,
    plan_traffic,
    run_load,
)

SMOKE_JOBS = int(os.environ.get("REPRO_LOADGEN_JOBS", "300"))


# -- plan shape ---------------------------------------------------------------

def test_plan_traffic_is_reproducible():
    spec = TrafficSpec(jobs=200, seed=7, tenants={"x": 3.0, "y": 1.0})
    a, b = plan_traffic(spec), plan_traffic(spec)
    assert [(p.at_s, p.job.tag, p.job.tenant, p.job.policy, p.job.factory)
            for p in a] == \
           [(p.at_s, p.job.tag, p.job.tenant, p.job.policy, p.job.factory)
            for p in b]


def test_plan_seeds_diverge():
    spec_a = TrafficSpec(jobs=100, seed=1, tenants={"x": 1.0, "y": 1.0})
    spec_b = TrafficSpec(jobs=100, seed=2, tenants={"x": 1.0, "y": 1.0})
    a, b = plan_traffic(spec_a), plan_traffic(spec_b)
    assert [p.job.tenant for p in a] != [p.job.tenant for p in b]


def test_plan_arrival_times_monotone_with_bursts():
    spec = TrafficSpec(jobs=120, seed=3, mean_interarrival_s=0.001,
                       burst_every=40, burst_size=5)
    plan = plan_traffic(spec)
    times = [p.at_s for p in plan]
    assert times == sorted(times)
    # bursts share an instant: at least one run of equal timestamps
    assert any(times[i] == times[i + 1] for i in range(len(times) - 1))


def test_plan_tenant_weights_bias_the_draw():
    spec = TrafficSpec(jobs=1000, seed=11, tenants={"heavy": 9.0,
                                                    "light": 1.0})
    plan = plan_traffic(spec)
    heavy = sum(1 for p in plan if p.job.tenant == "heavy")
    assert heavy > 700  # 9:1 weights; binomial leaves huge margin


def test_plan_tags_are_unique():
    plan = plan_traffic(TrafficSpec(jobs=500, seed=0))
    tags = [p.job.tag for p in plan]
    assert len(set(tags)) == len(tags)


def test_plan_rejects_empty_spec():
    with pytest.raises(ValueError):
        plan_traffic(TrafficSpec(jobs=0))


# -- the smoke gate -----------------------------------------------------------

def test_loadgen_smoke_no_loss_no_dup_coalesces(gpu4):
    spec = TrafficSpec(
        jobs=SMOKE_JOBS,
        seed=42,
        tenants={"a": 2.0, "b": 1.0, "c": 1.0},
        templates=(
            WorkloadTemplate("axpy", 1024, seed=1),
            WorkloadTemplate("sum", 1024, seed=2),
        ),
        policies=("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO", "SCHED_DYNAMIC"),
        mean_interarrival_s=0.0,
    )

    async def main():
        async with OffloadService(
            gpu4,
            pool_size=2,
            default_quota=TenantQuota(max_in_flight=spec.jobs),
        ) as svc:
            return await run_load(svc, plan_traffic(spec))

    report = asyncio.run(main())
    assert report.jobs == SMOKE_JOBS
    assert report.completed == SMOKE_JOBS
    assert report.failed == 0
    assert report.rejected == 0
    assert report.lost == 0
    assert report.duplicated == 0
    assert report.coalesce_ratio > 0.0
    assert report.batches >= 1
    assert report.jobs_per_s > 0.0
    assert report.p99_latency_s >= report.p50_latency_s >= 0.0
    assert sum(report.per_tenant_completed.values()) == SMOKE_JOBS
    assert set(report.per_tenant_completed) == {"a", "b", "c"}


def test_run_load_counts_rejections_without_retry(gpu4):
    """An under-provisioned quota shows up as rejections, not hangs."""
    spec = TrafficSpec(jobs=40, seed=5, mean_interarrival_s=0.0,
                       templates=(WorkloadTemplate("axpy", 512, seed=1),))

    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            default_quota=TenantQuota(max_in_flight=4),
        ) as svc:
            return await run_load(svc, plan_traffic(spec))

    report = asyncio.run(main())
    assert report.rejected > 0
    assert report.completed + report.rejected == spec.jobs
    assert report.lost == 0 and report.duplicated == 0


def test_run_load_reports_failures(gpu4):
    """A job whose factory explodes is counted as failed, with its tag."""
    boom = OffloadJob(lambda: (_ for _ in ()).throw(RuntimeError("bad")),
                      policy="BLOCK", tag="boom")
    good = plan_traffic(TrafficSpec(
        jobs=3, seed=0, templates=(WorkloadTemplate("axpy", 512, seed=1),),
        mean_interarrival_s=0.0,
    ))

    async def main():
        async with OffloadService(gpu4) as svc:
            from repro.service.loadgen import Arrival
            plan = [Arrival(0.0, boom)] + good
            return await run_load(svc, plan)

    report = asyncio.run(main())
    assert report.failed == 1
    assert report.completed == 3
    assert any("boom" in e for e in report.errors)
