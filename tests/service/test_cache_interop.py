"""Sweep-cache interop: the service and the grid runner share cache keys.

Both directions are pinned: a ``run_cell``/``run_grid`` sweep warms the
cache for the service (a resubmitted cell never re-executes), and
service-executed cells warm the cache for a later grid sweep.  The keys
must be the *same* :func:`~repro.bench.cache.result_key` fingerprints —
not merely compatible — so the two layers can never fork.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.bench.cache import CACHE_ENV, SweepCache
from repro.bench.runner import run_cell
from repro.bench.workloads import BENCH_SCALE_ENV, WorkloadFactory
from repro.service import OffloadJob, OffloadService, WorkloadTemplate

TMPL = WorkloadTemplate("axpy", 1024, seed=1)


@pytest.fixture
def memcache(monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "mem")
    # keep WorkloadFactory cells tiny (axpy: 10M * 2e-4 = 2000 iterations)
    monkeypatch.setenv(BENCH_SCALE_ENV, "0.0002")
    return SweepCache()


def serve(machine, jobs, cache, **svc_kwargs):
    async def main():
        async with OffloadService(machine, cache=cache, **svc_kwargs) as svc:
            handles = [await svc.submit(j) for j in jobs]
            results = await asyncio.gather(*(h.wait() for h in handles))
            snap = svc.metrics.snapshot()
        return results, snap

    return asyncio.run(main())


def test_service_warm_hit_after_service_run(gpu4, memcache):
    jobs = [OffloadJob(TMPL, policy="BLOCK", seed=1, tag=t) for t in "ab"]
    cold, _ = serve(gpu4, jobs[:1], memcache)
    assert not cold[0].cache_hit
    assert memcache.stats.puts == 1
    warm, snap = serve(gpu4, jobs[1:], memcache)
    assert warm[0].cache_hit
    assert snap["counters"]["service_cache_hits"] == 1.0
    assert pickle.dumps(warm[0].result) == pickle.dumps(cold[0].result)


def test_grid_sweep_warms_service(gpu4, memcache):
    """run_cell populates; the service serves the hit without executing."""
    factory = WorkloadFactory("axpy", seed=1)
    direct = run_cell(gpu4, factory, "BLOCK", cache=memcache)
    assert memcache.stats.puts == 1
    results, snap = serve(
        gpu4, [OffloadJob(factory, policy="BLOCK", seed=0)], memcache,
    )
    assert results[0].cache_hit
    # no engine ever ran for this job: the pool granted zero leases
    assert snap["counters"].get("service_engine_runs", 0.0) == 0.0
    assert pickle.dumps(results[0].result) == pickle.dumps(direct)


def test_service_warms_grid_sweep(gpu4, memcache):
    """Service-executed cells are later served to run_cell from cache."""
    factory = WorkloadFactory("axpy", seed=1)
    results, _ = serve(
        gpu4, [OffloadJob(factory, policy="MODEL_1_AUTO", seed=0)], memcache,
    )
    assert not results[0].cache_hit
    before = memcache.stats.hits
    from_grid = run_cell(gpu4, factory, "MODEL_1_AUTO", cache=memcache)
    assert memcache.stats.hits == before + 1
    assert pickle.dumps(from_grid) == pickle.dumps(results[0].result)


def test_coalesced_cells_populate_cache(gpu4, memcache):
    jobs = [
        OffloadJob(TMPL, policy=p, seed=1, tag=p)
        for p in ("BLOCK", "MODEL_1_AUTO", "MODEL_2_AUTO")
    ]
    results, _ = serve(
        gpu4, jobs, memcache, pool_size=1,
    )
    assert any(r.coalesced for r in results)
    assert memcache.stats.puts == 3
    # every cell is individually retrievable afterwards
    again, snap = serve(gpu4, jobs, memcache)
    assert all(r.cache_hit for r in again)
    for a, b in zip(results, again):
        assert pickle.dumps(a.result) == pickle.dumps(b.result)


def test_uncacheable_jobs_never_touch_the_cache(gpu4, memcache):
    jobs = [
        OffloadJob(lambda: TMPL(), policy="BLOCK", seed=1),   # anonymous
        OffloadJob(TMPL, policy="BLOCK", seed=1, devices=[0, 1]),
        OffloadJob(TMPL, policy="BLOCK", seed=1, record_events=True),
    ]
    results, _ = serve(gpu4, jobs, memcache)
    assert all(r.ok and not r.cache_hit for r in results)
    assert memcache.stats.puts == 0
    assert memcache.stats.hits == 0


def test_traced_jobs_bypass_reads_but_populate(gpu4, memcache):
    """Mirrors run_grid: a cache hit has no spans to give."""
    job_a = OffloadJob(TMPL, policy="BLOCK", seed=1, trace=True)
    first, _ = serve(gpu4, [job_a], memcache)
    assert not first[0].cache_hit
    assert memcache.stats.puts == 1
    # a second traced submission re-executes (needs fresh spans)...
    second, _ = serve(
        gpu4, [OffloadJob(TMPL, policy="BLOCK", seed=1, trace=True)],
        memcache,
    )
    assert not second[0].cache_hit
    # ...but an untraced one is a hit, byte-equal to the traced result
    third, _ = serve(
        gpu4, [OffloadJob(TMPL, policy="BLOCK", seed=1)], memcache,
    )
    assert third[0].cache_hit
    assert pickle.dumps(third[0].result) == pickle.dumps(first[0].result)


def test_use_cache_false_bypasses_everything(gpu4, memcache):
    jobs = [OffloadJob(TMPL, policy="BLOCK", seed=1) for _ in range(2)]
    results, _ = serve(gpu4, jobs, memcache, use_cache=False)
    assert all(not r.cache_hit for r in results)
    assert memcache.stats.puts == 0
