"""Job-spec validation and service lifecycle errors."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    HompError,
    JobSpecError,
    SchedulingError,
    ServiceClosedError,
    ServiceError,
)
from repro.kernels.registry import make_kernel
from repro.runtime import HompRuntime
from repro.service import OffloadJob, OffloadService, WorkloadTemplate

TMPL = WorkloadTemplate("axpy", 512, seed=1)


def test_factory_must_be_callable():
    with pytest.raises(JobSpecError):
        OffloadJob(factory="axpy").validate()


def test_kernel_instance_is_not_a_factory():
    kernel = make_kernel("axpy", 256, seed=0)
    with pytest.raises(JobSpecError, match="factory that builds one per run"):
        OffloadJob(factory=kernel).validate()


def test_tenant_must_be_nonempty_string():
    with pytest.raises(JobSpecError):
        OffloadJob(factory=TMPL, tenant="").validate()
    with pytest.raises(JobSpecError):
        OffloadJob(factory=TMPL, tenant=7).validate()


@pytest.mark.parametrize("bad", ["half", -0.1, 1.5, object()])
def test_cutoff_ratio_validated(bad):
    with pytest.raises(JobSpecError):
        OffloadJob(factory=TMPL, cutoff_ratio=bad).validate()


def test_cutoff_auto_is_accepted():
    OffloadJob(factory=TMPL, cutoff_ratio="auto").validate()


def test_cutoff_interval_is_the_runtimes_on_both_entry_points(gpu4):
    """[0, 1): 1.0 used to be admitted by the service, hold a queue slot
    and only fail when its group ran, with the runtime's SchedulingError."""
    rt = HompRuntime(gpu4, execute_numerically=False)
    assert rt.parallel_for(TMPL(), schedule="MODEL_1_AUTO", cutoff_ratio=0.999)
    with pytest.raises(SchedulingError, match=r"\[0, 1\)"):
        rt.parallel_for(TMPL(), schedule="MODEL_1_AUTO", cutoff_ratio=1.0)

    async def main():
        async with OffloadService(gpu4) as svc:
            with pytest.raises(JobSpecError, match=r"\[0, 1\)"):
                await svc.submit(
                    OffloadJob(TMPL, policy="MODEL_1_AUTO", cutoff_ratio=1.0)
                )
            handle = await svc.submit(
                OffloadJob(TMPL, policy="MODEL_1_AUTO", cutoff_ratio=0.999)
            )
            assert (await handle).ok

    asyncio.run(main())


def test_seed_must_be_int():
    with pytest.raises(JobSpecError):
        OffloadJob(factory=TMPL, seed="0").validate()
    with pytest.raises(JobSpecError):
        OffloadJob(factory=TMPL, seed=True).validate()


def test_fault_plan_type_checked():
    with pytest.raises(JobSpecError):
        OffloadJob(factory=TMPL, fault_plan="crash").validate()


def test_jobspecerror_is_a_homp_value_error():
    # catchable as the library base, the service base, or ValueError
    assert issubclass(JobSpecError, HompError)
    assert issubclass(JobSpecError, ServiceError)
    assert issubclass(JobSpecError, ValueError)


@pytest.mark.parametrize("kwargs", [
    {"pool_size": 0}, {"pool_size": True}, {"pool_size": 2.5},
    {"max_batch": True}, {"max_batch": 2.0},
    {"queue_capacity": True}, {"queue_capacity": 2.5},
])
def test_service_sizes_checked_at_construction(gpu4, kwargs):
    # Refused before start(): a bool is not a size, and neither is 0.
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        OffloadService(gpu4, **kwargs)


def test_use_cache_true_is_refused(gpu4):
    # There is no result cache: every job is computed.
    with pytest.raises(TypeError, match="no result cache"):
        OffloadService(gpu4, use_cache=True)
    assert OffloadService(gpu4, use_cache=False).pool_size == 4


def test_submit_before_start_and_after_close(gpu4):
    async def main():
        svc = OffloadService(gpu4)
        with pytest.raises(ServiceClosedError):
            await svc.submit(OffloadJob(TMPL, policy="BLOCK"))
        async with svc:
            handle = await svc.submit(
                OffloadJob(TMPL, policy="BLOCK", seed=1)
            )
            assert (await handle).ok
        with pytest.raises(ServiceClosedError):
            await svc.submit(OffloadJob(TMPL, policy="BLOCK"))

    asyncio.run(main())


def test_submit_rejects_malformed_job_before_admission(gpu4):
    async def main():
        async with OffloadService(gpu4) as svc:
            with pytest.raises(JobSpecError):
                await svc.submit(OffloadJob(factory=None))
            # a rejected job must not leak an admission slot
            assert svc._admission.total_in_flight() == 0

    asyncio.run(main())


def test_double_start_is_an_error(gpu4):
    async def main():
        async with OffloadService(gpu4) as svc:
            with pytest.raises(ServiceError):
                await svc.start()

    asyncio.run(main())


def test_failed_job_yields_result_with_error(gpu4):
    def broken():
        raise RuntimeError("factory exploded")

    async def main():
        async with OffloadService(gpu4) as svc:
            handle = await svc.submit(OffloadJob(broken, policy="BLOCK"))
            res = await handle
        assert not res.ok
        assert isinstance(res.error, RuntimeError)
        with pytest.raises(RuntimeError, match="factory exploded"):
            res.unwrap()

    asyncio.run(main())


def test_close_without_drain_fails_queued_jobs(gpu4):
    async def main():
        svc = OffloadService(gpu4, pool_size=1)
        await svc.start()
        handles = [
            await svc.submit(
                OffloadJob(TMPL, policy="BLOCK", seed=1, tag=f"j{i}")
            )
            for i in range(6)
        ]
        await svc.close(drain=False)
        results = await asyncio.gather(*(h.wait() for h in handles))
        return results

    results = asyncio.run(main())
    # every handle resolves exactly once: finished jobs ok, the rest
    # failed with ServiceClosedError — none lost, none hanging
    assert len(results) == 6
    for res in results:
        assert res.ok or isinstance(res.error, ServiceClosedError)
    assert any(not res.ok for res in results)
