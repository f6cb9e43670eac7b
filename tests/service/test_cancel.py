"""Queued-job cancellation.

``submit`` runs synchronously to its return (no awaits after the queue
push), so a ``handle.cancel()`` issued before the caller yields control
deterministically finds the job still queued — the dispatcher only gets
to pop it on the next event-loop turn.
"""

import asyncio

import pytest

from repro.errors import AdmissionError, JobCancelled
from repro.service import (
    JobHandle,
    JobState,
    OffloadJob,
    OffloadService,
    TenantQuota,
    WeightedFairQueue,
    WorkloadTemplate,
)


TMPL = WorkloadTemplate("axpy", 512, seed=1)


def job(**kw) -> OffloadJob:
    return OffloadJob(TMPL, policy="BLOCK", seed=1, **kw)


# -- cancelling a queued job --------------------------------------------------

def test_cancel_queued_resolves_with_cancelled_result(gpu4):
    async def main():
        async with OffloadService(gpu4) as svc:
            h = await svc.submit(job(tag="victim"))
            assert h.cancel() is True
            res = await h  # resolves immediately, never raises
            counts = {
                name: svc.metrics.counter_value(name, tenant=res.job.tenant)
                for name in (
                    "service_jobs_cancelled",
                    "service_jobs_completed",
                )
            }
            counts["service_engine_runs"] = svc.metrics.counter_value(
                "service_engine_runs"
            )
        return res, counts

    res, counts = asyncio.run(main())
    assert res.state is JobState.CANCELLED
    assert res.cancelled and not res.ok
    assert res.result is None
    assert isinstance(res.error, JobCancelled)
    with pytest.raises(JobCancelled):
        res.unwrap()
    assert counts["service_jobs_cancelled"] == 1.0
    # The job never reached an engine: no runs, no completions.
    assert counts["service_engine_runs"] == 0.0
    assert counts["service_jobs_completed"] == 0.0


def test_cancel_after_completion_returns_false(gpu4):
    async def main():
        async with OffloadService(gpu4) as svc:
            h = await svc.submit(job())
            res = await h
            return res, h.cancel()

    res, cancelled = asyncio.run(main())
    assert res.ok
    assert cancelled is False


def test_double_cancel_returns_false(gpu4):
    async def main():
        async with OffloadService(gpu4) as svc:
            h = await svc.submit(job())
            first = h.cancel()
            second = h.cancel()
            await h
        return first, second

    assert asyncio.run(main()) == (True, False)


def test_handle_without_service_cannot_cancel():
    async def main():
        loop = asyncio.get_running_loop()
        h = JobHandle(job(), loop.create_future(), submitted_at=0.0)
        return h.cancel()

    assert asyncio.run(main()) is False


def test_cancel_releases_tenant_in_flight_slot(gpu4):
    """A cancelled job frees its admission slot like any completion."""

    async def main():
        async with OffloadService(
            gpu4,
            default_quota=TenantQuota(max_in_flight=1),
        ) as svc:
            h1 = await svc.submit(job(tag="a"))
            with pytest.raises(AdmissionError) as exc:
                await svc.submit(job(tag="b"))
            assert exc.value.reason == "in_flight"
            assert h1.cancel() is True
            # The slot is free again before any event-loop turn.
            h3 = await svc.submit(job(tag="c"))
            r1 = await h1
            r3 = await h3
        return r1, r3

    r1, r3 = asyncio.run(main())
    assert r1.cancelled
    assert r3.ok


def test_dispatched_job_cannot_be_cancelled(gpu4):
    async def main():
        async with OffloadService(
            gpu4, pool_size=1, coalesce=False
        ) as svc:
            h = await svc.submit(job())
            await asyncio.sleep(0)  # let the dispatcher claim the job
            late = h.cancel()
            res = await h
        return late, res

    late, res = asyncio.run(main())
    assert late is False
    assert res.ok


# -- WeightedFairQueue.remove -------------------------------------------------

class TestWeightedFairQueueRemove:
    def test_remove_is_identity_match(self):
        q = WeightedFairQueue()
        a, b = object(), object()
        q.push("t", a)
        q.push("t", b)
        assert q.remove("t", a) is True
        assert len(q) == 1
        _, item = q.pop()
        assert item is b

    def test_remove_missing_item_returns_false(self):
        q = WeightedFairQueue()
        q.push("t", "queued")
        assert q.remove("t", "other") is False
        assert q.remove("unknown-tenant", "queued") is False
        assert len(q) == 1

    def test_remove_charges_no_fair_share_pass(self):
        """Cancelling queued work must not count as being served."""
        q = WeightedFairQueue()
        items = [object() for _ in range(3)]
        for it in items:
            q.push("a", it)
        q.push("b", "b0")
        assert q.remove("a", items[0]) and q.remove("a", items[1])
        # Had the removals charged a's pass (2 units), b would now be
        # ahead; since they don't, the (pass, name) tie-break still
        # serves a first.
        assert q.pop() == ("a", items[2])
        assert q.pop() == ("b", "b0")
