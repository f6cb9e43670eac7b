"""Coalescing rules: who may batch, how groups form, what batches do."""

from __future__ import annotations

import asyncio

import pytest

from repro.bench.workloads import WorkloadFactory
from repro.faults.plan import FaultPlan
from repro.service import (
    OffloadJob,
    OffloadService,
    TenantQuota,
    WorkloadTemplate,
    coalescible,
    group_key,
    plan_group,
)

TMPL = WorkloadTemplate("axpy", 1024, seed=1)
SUM = WorkloadTemplate("sum", 1024, seed=1)
IDS = (0, 1, 2, 3, 4)


def job(**kw):
    kw.setdefault("factory", TMPL)
    kw.setdefault("policy", "BLOCK")
    kw.setdefault("seed", 1)
    return OffloadJob(**kw)


# -- coalescibility -----------------------------------------------------------

def test_vectorizable_policies_coalesce():
    for policy in ("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO",
                   "SCHED_PROFILE_AUTO", "MODEL_PROFILE_AUTO"):
        assert coalescible(job(policy=policy)), policy


def test_timing_dependent_policies_do_not_coalesce():
    for policy in ("SCHED_DYNAMIC", "SCHED_GUIDED"):
        assert not coalescible(job(policy=policy)), policy


def test_auto_policy_does_not_coalesce():
    # AUTO resolves against the kernel, which does not exist at queue time
    assert not coalescible(job(policy="AUTO"))
    assert not coalescible(job(policy="auto"))


def test_anonymous_factory_does_not_coalesce():
    assert not coalescible(job(factory=lambda: TMPL()))


def test_figure_workload_factory_runs_solo():
    # WorkloadFactory has no fingerprint(): its jobs never share a batch.
    assert group_key(job(factory=WorkloadFactory("axpy", seed=1)), IDS) is None


def test_side_channels_block_coalescing():
    assert not coalescible(job(trace=True))
    assert not coalescible(job(record_events=True))
    assert not coalescible(job(serialize_offload=True))
    assert not coalescible(job(fault_plan=FaultPlan()))


def test_unknown_policy_does_not_coalesce():
    assert not coalescible(job(policy="NOT_A_POLICY"))


# -- group keys ---------------------------------------------------------------

def test_group_key_separates_workloads_seeds_and_devices():
    base = group_key(job(), IDS)
    assert base is not None
    assert group_key(job(policy="MODEL_1_AUTO"), IDS) == base  # policy ≠ key
    assert group_key(job(cutoff_ratio=0.2), IDS) == base       # cutoff ≠ key
    assert group_key(job(factory=SUM), IDS) != base
    assert group_key(job(seed=2), IDS) != base
    assert group_key(job(verify=False), IDS) != base
    assert group_key(job(), (0, 1)) != base
    assert group_key(job(policy="SCHED_DYNAMIC"), IDS) is None


# -- group planning -----------------------------------------------------------

def test_plan_group_shares_kernel_and_executes_once():
    jobs = [job(), job(policy="MODEL_1_AUTO"), job(policy="MODEL_2_AUTO")]
    specs = plan_group(jobs)
    assert specs[0].kernel is specs[1].kernel is specs[2].kernel
    assert [s.execute_numerically for s in specs] == [True, False, False]


def test_plan_group_reduction_kernels_execute_every_cell():
    jobs = [job(factory=SUM), job(factory=SUM, policy="MODEL_1_AUTO")]
    specs = plan_group(jobs)
    assert [s.execute_numerically for s in specs] == [True, True]
    # sum maps only TO (no copy-out), so the instance may still be shared
    assert specs[0].kernel is specs[1].kernel


# -- end-to-end batching ------------------------------------------------------

def test_service_batches_compatible_jobs(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            # saturate the single slot so the queue builds a batch
            handles = [
                await svc.submit(job(tag=f"j{i}", policy=policy))
                for i, policy in enumerate(
                    ["BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO",
                     "SCHED_PROFILE_AUTO"] * 3
                )
            ]
            results = await asyncio.gather(*(h.wait() for h in handles))
            metrics = svc.metrics.snapshot()
        return results, metrics

    results, metrics = asyncio.run(main())
    completed = sum(
        v for k, v in metrics["counters"].items()
        if k.startswith("service_jobs_completed")
    )
    ratio = metrics["counters"]["service_coalesced_jobs"] / completed
    assert all(r.ok for r in results)
    # results map positionally back to their jobs
    assert [r.job.tag for r in results] == [f"j{i}" for i in range(12)]
    assert metrics["counters"]["service_batches"] >= 1
    assert metrics["counters"]["service_coalesced_jobs"] >= 2
    assert ratio > 0.0
    coalesced = [r for r in results if r.coalesced]
    assert coalesced and all(r.batch_size >= 2 for r in coalesced)


def test_incompatible_jobs_never_share_a_batch(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            mixed = [
                job(tag="a0"),
                job(tag="dyn", policy="SCHED_DYNAMIC"),
                job(tag="a1", policy="MODEL_1_AUTO"),
                job(tag="other-seed", seed=2),
                job(tag="other-wl", factory=SUM),
                job(tag="a2", policy="MODEL_2_AUTO"),
            ]
            handles = [await svc.submit(j) for j in mixed]
            results = await asyncio.gather(*(h.wait() for h in handles))
        return {r.job.tag: r for r in results}

    by_tag = asyncio.run(main())
    assert all(r.ok for r in by_tag.values())
    assert not by_tag["dyn"].coalesced
    # different seed / workload jobs may batch among themselves, never
    # with the axpy-seed-1 group
    axpy_group = {t for t, r in by_tag.items() if t.startswith("a")}
    for tag in ("other-seed", "other-wl", "dyn"):
        if by_tag[tag].coalesced:
            assert by_tag[tag].batch_size < len(axpy_group) + 1


def test_max_batch_caps_group_size(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1, max_batch=2,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [
                await svc.submit(job(tag=f"j{i}")) for i in range(8)
            ]
            results = await asyncio.gather(*(h.wait() for h in handles))
        return results

    results = asyncio.run(main())
    assert all(r.ok for r in results)
    assert max(r.batch_size for r in results) <= 2


def test_coalesce_false_disables_batching(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1, coalesce=False,
            default_quota=TenantQuota(max_in_flight=64),
        ) as svc:
            handles = [
                await svc.submit(job(tag=f"j{i}")) for i in range(6)
            ]
            results = await asyncio.gather(*(h.wait() for h in handles))
            assert svc.metrics.counter_value("service_batches") == 0.0
            assert svc.metrics.counter_value("service_coalesced_jobs") == 0.0
        return results

    results = asyncio.run(main())
    assert all(not r.coalesced and r.batch_size == 1 for r in results)
