"""Engine pooling: exclusive leases, reuse, and EngineBusyError safety.

Two halves of one contract: a bare engine *does* raise
:class:`~repro.errors.EngineBusyError` when two tasks race ``run()`` on
it, and the pool makes that impossible by construction — even under a
stress load far wider than the pool.
"""

from __future__ import annotations

import asyncio
import pickle
import threading

import pytest

from repro.engine.core import make_backend
from repro.engine.simulator import OffloadEngine
from repro.errors import EngineBusyError, OffloadError
from repro.kernels.registry import make_kernel
from repro.machine.spec import MachineSpec
from repro.runtime.runtime import HompRuntime
from repro.sched.registry import make_scheduler
from repro.service import EnginePool, OffloadJob, OffloadService, TenantQuota
from repro.service.loadgen import WorkloadTemplate

TMPL = WorkloadTemplate("axpy", 512, seed=1)


# -- the hazard the pool exists to prevent ------------------------------------

def test_concurrent_run_on_one_engine_raises_busy(gpu4):
    """Two threads entering run() on one engine: exactly one must win."""
    engine = make_backend("virtual", gpu4)
    n_threads = 4
    start = threading.Barrier(n_threads)
    outcomes: list[str] = []
    lock = threading.Lock()

    def attempt(i: int) -> None:
        kernel = make_kernel("axpy", 200_000, seed=i)
        sched = make_scheduler("BLOCK")
        start.wait()
        try:
            engine.run(kernel, sched)
        except EngineBusyError:
            with lock:
                outcomes.append("busy")
        else:
            with lock:
                outcomes.append("ran")

    threads = [
        threading.Thread(target=attempt, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes.count("ran") >= 1
    assert outcomes.count("busy") >= 1
    assert len(outcomes) == n_threads


def test_configured_lease_on_busy_engine_raises(gpu4):
    """configured() refuses an engine that is mid-run."""
    engine = make_backend("virtual", gpu4)
    release = threading.Event()
    entered = threading.Event()

    class SlowKernel:
        pass

    # Hold the run gate open via a run in another thread.
    def run():
        kernel = make_kernel("axpy", 1000, seed=0)
        sched = make_scheduler("BLOCK")
        orig = kernel.execute_chunk

        def slow_execute(rows):
            entered.set()
            release.wait(timeout=10)
            return orig(rows)

        kernel.execute_chunk = slow_execute
        engine.run(kernel, sched)

    t = threading.Thread(target=run)
    t.start()
    try:
        assert entered.wait(timeout=10)
        assert engine.busy
        with pytest.raises(EngineBusyError):
            with engine.configured(seed=5):
                pass
    finally:
        release.set()
        t.join()
    assert not engine.busy


def test_lease_engine_rejects_mismatched_machine(gpu4, cpu_mic):
    """A pooled engine bound to another machine is refused up front."""
    rt = HompRuntime(gpu4)
    foreign = make_backend("virtual", cpu_mic)
    with pytest.raises(OffloadError, match="bound to machine"):
        rt.parallel_for(make_kernel("axpy", 512, seed=0), schedule="BLOCK",
                        engine=foreign)


def test_lease_engine_compares_machines_by_value(gpu4):
    """The binding check is spec equality: an equal submachine built
    independently is accepted, a different selection of the same machine
    is refused."""
    rt = HompRuntime(gpu4)
    kernel = make_kernel("axpy", 512, seed=0)
    rebuilt = MachineSpec.from_dict(gpu4.subset([0, 1]).to_dict())
    assert rebuilt is not gpu4.subset([0, 1])
    pooled = make_backend("virtual", rebuilt)
    leased = rt.parallel_for(kernel, schedule="BLOCK", devices=[0, 1],
                             engine=pooled)
    direct = rt.parallel_for(make_kernel("axpy", 512, seed=0),
                             schedule="BLOCK", devices=[0, 1])
    assert pickle.dumps(leased) == pickle.dumps(direct)
    with pytest.raises(OffloadError, match=(
        r"bound to machine 'gpu4\[0,1\]' but this offload selects "
        r"'gpu4\[1,2\]'; pool one engine per \(machine, device selection\)"
    )):
        rt.parallel_for(kernel, schedule="BLOCK", devices=[1, 2],
                        engine=pooled)


def test_lease_engine_rejects_a_non_engine(gpu4):
    """engine= takes an OffloadEngine: a look-alike is refused up front."""

    class LookAlike:
        machine = gpu4.subset(range(len(gpu4)))

        def configured(self, **options):
            raise AssertionError("a refused engine is never configured")

        def run(self, *args, **kwargs):
            raise AssertionError("a refused engine never runs")

    rt = HompRuntime(gpu4)
    with pytest.raises(OffloadError, match="expects an OffloadEngine"):
        rt.parallel_for(make_kernel("axpy", 512, seed=0), schedule="BLOCK",
                        engine=LookAlike())


# -- pool mechanics -----------------------------------------------------------

def test_pool_bounds_concurrency_and_reuses_engines(gpu4):
    async def main():
        pool = EnginePool(gpu4, size=2)
        ids = tuple(range(len(gpu4)))
        a = await pool.acquire(ids)
        b = await pool.acquire(ids)
        assert pool.active == 2 and pool.created == 2
        # third acquire must block until a release
        third = asyncio.ensure_future(pool.acquire(ids))
        await asyncio.sleep(0)
        assert not third.done()
        pool.release(ids, a)
        c = await third
        assert c is a  # the freed engine is reused, not rebuilt
        pool.release(ids, b)
        pool.release(ids, c)
        assert pool.created == 2
        assert pool.max_active == 2
        assert pool.leases == 3

    asyncio.run(main())


def test_pool_keys_engines_by_backend_and_devices(gpu4):
    class Sub(OffloadEngine):
        pass

    async def main():
        pool = EnginePool(gpu4, size=4, backend=Sub)
        all_ids = tuple(range(len(gpu4)))
        v = await pool.acquire(all_ids)
        w = await pool.acquire(all_ids)
        sub = await pool.acquire((0, 1))
        assert type(v) is type(w) is type(sub) is Sub
        assert len(sub.machine) == 2
        # the submachine is built through MachineSpec.subset — the exact
        # path parallel_for takes, so pooled results match direct ones
        assert sub.machine.to_dict() == gpu4.subset([0, 1]).to_dict()
        for ids, eng in ((all_ids, v), (all_ids, w), ((0, 1), sub)):
            pool.release(ids, eng)
        assert pool.created == 3
        # a key is the device selection: the freed engines are leased
        # again instead of built
        assert await pool.acquire(list(all_ids)) in (v, w)
        assert await pool.acquire((0, 1)) is sub
        assert pool.created == 3

    asyncio.run(main())


def test_pool_size_validation(gpu4):
    for size in (0, True, 2.5):
        with pytest.raises(ValueError, match="pool size"):
            EnginePool(gpu4, size=size)


# -- the stress guarantee -----------------------------------------------------

def test_pool_never_trips_engine_busy_under_load(gpu4):
    """120 interleaved jobs over a 3-slot pool: EngineBusyError unreachable.

    Every failure mode of a mis-shared engine surfaces as a failed
    JobResult, so asserting all 120 results are ok pins the guarantee.
    """
    policies = ("BLOCK", "SCHED_DYNAMIC", "MODEL_1_AUTO", "SCHED_GUIDED")

    async def main():
        async with OffloadService(
            gpu4,
            pool_size=3,
            coalesce=False,  # solo jobs only: maximum engine churn
            default_quota=TenantQuota(max_in_flight=200),
        ) as svc:
            handles = []
            for i in range(120):
                handles.append(await svc.submit(OffloadJob(
                    TMPL,
                    policy=policies[i % len(policies)],
                    tenant=f"tenant-{i % 5}",
                    seed=1,
                    tag=f"j{i}",
                )))
                if i % 7 == 0:
                    await asyncio.sleep(0)  # interleave with the dispatcher
            results = await asyncio.gather(*(h.wait() for h in handles))
            stats = svc.pool_stats()
        return results, stats

    results, stats = asyncio.run(main())
    assert len(results) == 120
    for res in results:
        assert res.ok, f"{res.job.tag} failed: {res.error!r}"
        assert not isinstance(res.error, EngineBusyError)
    # the pool held its bound and actually reused engines
    assert stats["max_active"] <= 3
    assert stats["leases"] == 120
    assert stats["created"] <= 3


def test_pooled_engines_isolated_across_asyncio_tasks(gpu4):
    """Concurrent tasks reusing pooled engines see no cross-job state bleed:
    every job's reduction matches its own seed's direct run."""

    async def one(svc, seed, policy):
        handle = await svc.submit(OffloadJob(
            WorkloadTemplate("sum", 2048, seed=seed), policy=policy,
            seed=seed,
        ))
        return await handle

    async def main():
        async with OffloadService(
            gpu4, pool_size=2, coalesce=False,
        ) as svc:
            return await asyncio.gather(*(
                one(svc, seed, policy)
                for seed in (1, 2, 3)
                for policy in ("BLOCK", "MODEL_1_AUTO")
            ))

    results = asyncio.run(main())
    for res in results:
        assert res.ok, res.error
        rt = HompRuntime(gpu4, seed=res.job.seed)
        direct = rt.parallel_for(res.job.factory(), schedule=res.job.policy)
        assert res.result.reduction == direct.reduction
        assert res.result.total_time_s == direct.total_time_s
