"""The one completion path, and the dispatcher surviving a job's failure.

Every admitted job ends in exactly one of five terminal outcomes; each
must fill the same :class:`~repro.service.job.JobResult` envelope, count
itself once and release the tenant's admission slot once — whichever way
the job ended.  A failure *before* the engine runs (an engine that
cannot be constructed) is that job's failure, not the dispatcher's.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.simulator import OffloadEngine
from repro.errors import JobCancelled, JobExpired
from repro.service import (
    JobState,
    OffloadJob,
    OffloadService,
    TenantQuota,
    WorkloadTemplate,
)

TMPL = WorkloadTemplate("axpy", 512, seed=1)


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


class Boom(RuntimeError):
    pass


def _exploding():
    raise Boom("kernel factory failed")


#: outcome -> (job, expected state, error type, counter, coalesced,
#: batch_size)
OUTCOMES = {
    "done": (
        OffloadJob(TMPL, policy="SCHED_DYNAMIC", seed=1),
        JobState.DONE, None, "service_jobs_completed", False, 1,
    ),
    "done-coalesced": (
        OffloadJob(TMPL, policy="BLOCK", seed=1),
        JobState.DONE, None, "service_jobs_completed", True, 2,
    ),
    "failed": (
        OffloadJob(_exploding, policy="BLOCK"),
        JobState.FAILED, Boom, "service_jobs_failed", False, 1,
    ),
    "cancelled": (
        OffloadJob(TMPL, policy="BLOCK", seed=1),
        JobState.CANCELLED, JobCancelled, "service_jobs_cancelled", False, 1,
    ),
    "expired": (
        OffloadJob(TMPL, policy="BLOCK", seed=1, deadline_s=1.0),
        JobState.EXPIRED, JobExpired, "service_jobs_expired", False, 1,
    ),
}


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_every_terminal_outcome_fills_one_envelope(gpu4, monkeypatch, outcome):
    job, state, error, counter, coalesced, batch_size = OUTCOMES[outcome]
    clock = FakeClock()

    async def main():
        svc = OffloadService(
            gpu4, clock=clock,
            default_quota=TenantQuota(max_in_flight=8),
        )
        releases = []
        release = svc._admission.release
        monkeypatch.setattr(
            svc._admission, "release",
            lambda tenant: (releases.append(tenant), release(tenant))[1],
        )
        async with svc:
            submitted = clock.t
            handle = await svc.submit(job)
            mate = None
            if outcome == "done-coalesced":
                mate = await svc.submit(
                    OffloadJob(TMPL, policy="MODEL_1_AUTO", seed=1)
                )
            if outcome == "cancelled":
                assert handle.cancel() is True
                assert handle.cancel() is False  # already resolved
            clock.t += 5.0
            res = await handle
            if mate is not None:
                assert (await mate).ok
            await svc.drain()
            counted = svc.metrics.counter_value(counter, tenant="default")
            in_flight = svc._admission.total_in_flight()
        return res, submitted, releases, counted, in_flight

    res, submitted, releases, counted, in_flight = asyncio.run(main())
    assert res.job is job and res.state is state
    assert (res.result is not None) == (state is JobState.DONE)
    assert res.error is None if error is None else isinstance(res.error, error)
    assert (res.coalesced, res.batch_size) == (coalesced, batch_size)
    assert res.submitted_at == submitted
    # queue-only outcomes never started; the clock moved 5 s before the rest
    ran = state in (JobState.DONE, JobState.FAILED)
    assert res.started_at == (submitted + 5.0 if ran else submitted)
    assert res.finished_at == (
        submitted if state is JobState.CANCELLED else submitted + 5.0
    )
    assert res.tracer is None
    gauges = res.metrics.snapshot()["gauges"]
    assert gauges.get("job_batch_size") == (
        float(batch_size) if state is JobState.DONE else None
    )
    assert res.metrics.counter_value("job_coalesced") == float(coalesced)
    # exactly one release per admitted job, and nothing left in flight
    assert releases == ["default"] * (2 if outcome == "done-coalesced" else 1)
    assert counted == (2.0 if outcome == "done-coalesced" else 1.0)
    assert in_flight == 0


def test_unknown_backend_is_refused_at_construction(gpu4):
    """backend= takes an OffloadEngine subclass, never a name."""
    for backend in ("virtual", "no-such-backend", object):
        with pytest.raises(TypeError, match="OffloadEngine subclass"):
            OffloadService(gpu4, backend=backend)


def test_dispatcher_survives_a_backend_that_cannot_be_built(gpu4):
    class Flaky(OffloadEngine):
        """An engine whose first construction raises."""

        built = 0

        def __init__(self, **options):
            type(self).built += 1
            if type(self).built == 1:
                raise Boom("device queue could not be opened")
            super().__init__(**options)

    async def main():
        svc = OffloadService(gpu4, backend=Flaky, pool_size=1)
        await svc.start()
        first = await svc.submit(OffloadJob(TMPL, policy="BLOCK", seed=1, tag="a"))
        r1 = await asyncio.wait_for(first.wait(), timeout=10)
        stats = {"active": svc._pool.active, "created": svc._pool.created}
        in_flight = svc._admission.total_in_flight()
        second = await svc.submit(OffloadJob(TMPL, policy="BLOCK", seed=1, tag="b"))
        r2 = await asyncio.wait_for(second.wait(), timeout=10)
        await asyncio.wait_for(svc.close(), timeout=10)
        return r1, stats, in_flight, r2, svc._running

    r1, stats, in_flight, r2, running = asyncio.run(main())
    assert r1.state is JobState.FAILED and isinstance(r1.error, Boom)
    assert stats["active"] == 0 and stats["created"] == 0
    assert in_flight == 0
    assert r2.ok and Flaky.built == 2
    assert not running
