"""The service asks the grid runner's cell rule:
:func:`repro.bench.cache.cell_key` decides which job has a sweep-cache key.
"""

from __future__ import annotations

import asyncio
import pickle

from repro.bench.cache import CACHE_ENV, SweepCache
from repro.service import (
    OffloadJob,
    OffloadService,
    TenantQuota,
    WorkloadTemplate,
)

TMPL = WorkloadTemplate("axpy", 1024, seed=1)


def serve(machine, jobs, **svc_kwargs):
    async def main():
        async with OffloadService(
            machine, default_quota=TenantQuota(max_in_flight=64), **svc_kwargs
        ) as svc:
            handles = [await svc.submit(j) for j in jobs]
            return await asyncio.gather(*(h.wait() for h in handles))

    return asyncio.run(main())


def test_auto_cutoff_job_is_unkeyed_and_runs(gpu4, monkeypatch):
    """The service's half of the rule ``run_cell``/``run_grid`` now share:
    ``"auto"`` has no key, so the job runs and nothing is stored."""
    monkeypatch.setenv(CACHE_ENV, "mem")
    cache = SweepCache()
    named, anon = serve(
        gpu4,
        [
            OffloadJob(TMPL, policy="MODEL_1_AUTO", cutoff_ratio="auto", seed=1),
            OffloadJob(lambda: TMPL(), policy="MODEL_1_AUTO",
                       cutoff_ratio="auto", seed=1),
        ],
        cache=cache,
    )
    assert named.ok and anon.ok and not named.cache_hit
    assert pickle.dumps(named.result) == pickle.dumps(anon.result)
    assert cache.stats.puts == 0


def test_cache_off_service_never_fingerprints(gpu4):
    class Loud(WorkloadTemplate):
        def fingerprint(self):
            raise AssertionError("fingerprint() called with caching off")

    (res,) = serve(
        gpu4, [OffloadJob(Loud("axpy", 1024, seed=1), policy="BLOCK", seed=1)],
        use_cache=False, coalesce=False,
    )
    assert res.ok
