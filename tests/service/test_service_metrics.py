"""Service aggregate metrics: deterministic counts, not timings.

Queue depth, admission rejections, coalesce ratio, and per-tenant served
counters must come out exactly right for a fixed plan — they are counts
of discrete events, so concurrency may reorder them but never change
their totals.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import AdmissionError
from repro.service import (
    OffloadJob,
    OffloadService,
    TenantQuota,
    WorkloadTemplate,
)

TMPL = WorkloadTemplate("axpy", 1024, seed=1)


def job(**kw):
    kw.setdefault("factory", TMPL)
    kw.setdefault("policy", "BLOCK")
    kw.setdefault("seed", 1)
    return OffloadJob(**kw)


def test_per_tenant_served_counts_are_exact(gpu4):
    plan = [job(tenant=t, tag=f"{t}{i}")
            for t in ("a", "b", "c") for i in range({"a": 5, "b": 3,
                                                     "c": 2}[t])]

    async def main():
        async with OffloadService(
            gpu4, pool_size=2,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [await svc.submit(j) for j in plan]
            await asyncio.gather(*(h.wait() for h in handles))
            return svc.metrics.snapshot()

    snap = asyncio.run(main())
    counters = snap["counters"]
    assert counters["service_jobs_submitted{tenant=a}"] == 5.0
    assert counters["service_jobs_submitted{tenant=b}"] == 3.0
    assert counters["service_jobs_submitted{tenant=c}"] == 2.0
    assert counters["service_jobs_completed{tenant=a}"] == 5.0
    assert counters["service_jobs_completed{tenant=b}"] == 3.0
    assert counters["service_jobs_completed{tenant=c}"] == 2.0
    assert "service_jobs_failed{tenant=a}" not in counters


def test_queue_depth_gauge_returns_to_zero(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [await svc.submit(job(tag=f"j{i}")) for i in range(8)]
            # while queued, the gauge saw a non-zero depth at some point;
            # after the drain it must read exactly zero again
            await asyncio.gather(*(h.wait() for h in handles))
            assert svc.queue_depth() == 0
            return svc.metrics.snapshot()

    snap = asyncio.run(main())
    assert snap["gauges"]["service_queue_depth"] == 0.0


def test_admission_rejections_are_counted_per_tenant(gpu4):
    """Exactly 4 of 6 submits bounce off a max_in_flight=2 quota.

    ``submit`` never yields, so the submit loop runs to its end before the
    dispatcher gets a turn: admission alone holds the first two slots for
    the whole loop, making the rejection count deterministic.
    """

    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            quotas={"greedy": TenantQuota(max_in_flight=2)},
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            rejected = 0
            handles = []
            for i in range(6):
                try:
                    handles.append(await svc.submit(job(tenant="greedy",
                                                        tag=f"g{i}")))
                except AdmissionError as exc:
                    assert exc.reason == "in_flight"
                    rejected += 1
            await asyncio.gather(*(h.wait() for h in handles))
            return rejected, svc.metrics.snapshot()

    rejected, snap = asyncio.run(main())
    assert rejected == 4
    key = "service_admission_rejections{reason=in_flight,tenant=greedy}"
    assert snap["counters"][key] == 4.0


def test_coalesce_ratio_and_batch_histogram(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [
                await svc.submit(job(tag=f"j{i}", policy=p))
                for i, p in enumerate(["BLOCK", "MODEL_1_AUTO",
                                       "MODEL_2_AUTO"] * 4)
            ]
            results = await asyncio.gather(*(h.wait() for h in handles))
            return results, svc.coalesce_ratio(), svc.metrics.snapshot()

    results, ratio, snap = asyncio.run(main())
    coalesced = sum(1 for r in results if r.coalesced)
    counters = snap["counters"]
    assert counters["service_coalesced_jobs"] == float(coalesced)
    assert ratio == pytest.approx(coalesced / len(results))
    # every job is accounted for: engine runs + cache hits == batches' jobs
    assert counters["service_engine_runs"] >= 1.0
    assert "service_batch_size" in snap["histograms"]


def test_per_job_registry_is_isolated(gpu4):
    """Each JobResult carries its own registry — markers never bleed."""
    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [
                await svc.submit(job(tag=f"j{i}", policy=p))
                for i, p in enumerate(
                    ["BLOCK", "MODEL_1_AUTO", "SCHED_DYNAMIC"] * 2
                )
            ]
            return await asyncio.gather(*(h.wait() for h in handles))

    results = asyncio.run(main())
    for res in results:
        assert res.ok
        assert res.metrics is not results[0].metrics or res is results[0]
        batch = res.metrics.snapshot()["gauges"].get("job_batch_size")
        assert batch == float(res.batch_size)
        marker = res.metrics.counter_value("job_coalesced")
        assert (marker == 1.0) == res.coalesced


def test_submitted_equals_completed_plus_failed(gpu4):
    boom = OffloadJob(lambda: (_ for _ in ()).throw(RuntimeError("x")),
                      policy="BLOCK", tag="boom")

    async def main():
        async with OffloadService(
            gpu4,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [await svc.submit(j)
                       for j in [job(tag="a"), boom, job(tag="b")]]
            await asyncio.gather(*(h.wait() for h in handles))
            m = svc.metrics
            submitted = m.counter_value("service_jobs_submitted",
                                        tenant="default")
            completed = m.counter_value("service_jobs_completed",
                                        tenant="default")
            failed = m.counter_value("service_jobs_failed", tenant="default")
            return submitted, completed, failed

    submitted, completed, failed = asyncio.run(main())
    assert submitted == 3.0
    assert completed == 2.0
    assert failed == 1.0
