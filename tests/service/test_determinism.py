"""The service determinism contract, pinned byte for byte.

For a fixed loadgen seed, every job's OffloadResult — served through
pooling, coalescing, any pool width, any submission interleaving — must
pickle byte-identically to calling ``parallel_for`` directly with the
same arguments on the virtual backend.  The latency envelope around the
result is wall-clock and explicitly excluded.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.runtime.runtime import HompRuntime
from repro.service import (
    OffloadJob,
    OffloadService,
    TenantQuota,
    TrafficSpec,
    WorkloadTemplate,
    plan_traffic,
    run_load,
)

SPEC = TrafficSpec(
    jobs=60,
    seed=123,
    tenants={"a": 2.0, "b": 1.0, "c": 1.0},
    templates=(
        WorkloadTemplate("axpy", 1024, seed=1),
        WorkloadTemplate("sum", 1024, seed=2),
    ),
    policies=("BLOCK", "MODEL_1_AUTO", "SCHED_DYNAMIC", "MODEL_2_AUTO"),
    mean_interarrival_s=0.0,
)


def direct_bytes(machine, job) -> bytes:
    """The reference: one direct virtual-backend parallel_for call."""
    rt = HompRuntime(machine, seed=job.seed)
    result = rt.parallel_for(
        job.factory(),
        schedule=job.policy,
        devices=job.devices,
        cutoff_ratio=job.cutoff_ratio,
    )
    return pickle.dumps(result)


def test_plan_is_deterministic():
    plan_a = plan_traffic(SPEC)
    plan_b = plan_traffic(SPEC)
    assert len(plan_a) == SPEC.jobs
    for x, y in zip(plan_a, plan_b):
        assert x.at_s == y.at_s
        assert x.job.tag == y.job.tag
        assert x.job.tenant == y.job.tenant
        assert x.job.policy == y.job.policy
        assert x.job.factory == y.job.factory


@pytest.mark.parametrize("pool_size,coalesce", [(1, True), (4, True),
                                                (4, False)])
def test_served_results_byte_equal_direct(gpu4, pool_size, coalesce):
    async def main():
        async with OffloadService(
            gpu4,
            pool_size=pool_size,
            coalesce=coalesce,
            default_quota=TenantQuota(max_in_flight=SPEC.jobs),
        ) as svc:
            handles = [
                await svc.submit(arrival.job)
                for arrival in plan_traffic(SPEC)
            ]
            return await asyncio.gather(*(h.wait() for h in handles))

    results = asyncio.run(main())
    assert len(results) == SPEC.jobs
    mismatches = []
    for res in results:
        assert res.ok, f"{res.job.tag}: {res.error!r}"
        if pickle.dumps(res.result) != direct_bytes(gpu4, res.job):
            mismatches.append(
                (res.job.tag, res.job.policy, res.coalesced, res.batch_size)
            )
    assert not mismatches, mismatches


def test_coalesced_and_solo_results_identical(gpu4):
    """The same plan served with and without coalescing: same bytes."""
    async def serve(coalesce):
        async with OffloadService(
            gpu4, pool_size=2, coalesce=coalesce,
            default_quota=TenantQuota(max_in_flight=SPEC.jobs),
        ) as svc:
            report = await run_load(svc, plan_traffic(SPEC))
            assert report.failed == 0 and report.rejected == 0
            handles = [
                await svc.submit(arrival.job)
                for arrival in plan_traffic(SPEC)
            ]
            return await asyncio.gather(*(h.wait() for h in handles))

    with_batches = asyncio.run(serve(True))
    without = asyncio.run(serve(False))
    assert any(r.coalesced for r in with_batches)
    assert not any(r.coalesced for r in without)
    for a, b in zip(with_batches, without):
        assert a.job.tag == b.job.tag
        assert pickle.dumps(a.result) == pickle.dumps(b.result)


def test_cutoff_auto_matches_direct(gpu4):
    """'auto' CUTOFF resolves identically through the service."""
    tmpl = WorkloadTemplate("axpy", 2048, seed=3)
    job = OffloadJob(tmpl, policy="MODEL_1_AUTO", cutoff_ratio="auto", seed=3)

    async def main():
        async with OffloadService(gpu4) as svc:
            return await (await svc.submit(job))

    res = asyncio.run(main())
    assert res.ok
    assert pickle.dumps(res.result) == direct_bytes(gpu4, job)


def test_device_subset_matches_direct(gpu4):
    tmpl = WorkloadTemplate("axpy", 2048, seed=4)
    job = OffloadJob(tmpl, policy="BLOCK", devices=[0, 2], seed=4)

    async def main():
        async with OffloadService(gpu4) as svc:
            return await (await svc.submit(job))

    res = asyncio.run(main())
    assert res.ok
    assert res.result.meta["device_ids"] == [0, 2]
    assert pickle.dumps(res.result) == direct_bytes(gpu4, job)
