"""Jobs no identity could name still run: an ``"auto"`` cutoff resolves
against the devices at run time, and a lambda factory names no workload.
"""

from __future__ import annotations

import asyncio
import pickle

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


def test_auto_cutoff_job_is_unkeyed_and_runs(gpu4):
    """A named and an anonymous factory with ``"auto"`` both run, and
    their results pickle identically."""
    named, anon = serve(
        gpu4,
        [
            OffloadJob(TMPL, policy="MODEL_1_AUTO", cutoff_ratio="auto", seed=1),
            OffloadJob(lambda: TMPL(), policy="MODEL_1_AUTO",
                       cutoff_ratio="auto", seed=1),
        ],
    )
    assert named.ok and anon.ok
    assert pickle.dumps(named.result) == pickle.dumps(anon.result)


def test_cache_off_service_never_fingerprints(gpu4):
    class Loud(WorkloadTemplate):
        def fingerprint(self):
            raise AssertionError("fingerprint() called without coalescing")

    # Only coalescing asks a factory for its identity.
    (res,) = serve(
        gpu4, [OffloadJob(Loud("axpy", 1024, seed=1), policy="BLOCK", seed=1)],
        coalesce=False,
    )
    assert res.ok
