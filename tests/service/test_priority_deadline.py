"""Job priority (WFQ stride boost) and queue deadlines (typed expiry).

Priority scales the *charge* a tenant pays when one of its jobs is
served — a priority-p job costs ``1/(weight*p)`` pass — so it shapes
dequeue frequency under saturation without ever reordering a tenant's
FIFO or preempting dispatched work.  ``deadline_s`` bounds queue
residency: the dispatcher resolves an overdue job with a typed
``EXPIRED`` result instead of running it, and handles never raise.

The service clock is injectable, so deadline expiry is driven
deterministically: submit, advance the fake clock past the deadline,
then yield to the dispatcher.
"""

import asyncio

import pytest

from repro.errors import JobExpired, JobSpecError
from repro.service import (
    JobState,
    OffloadJob,
    OffloadService,
    TenantQuota,
    WeightedFairQueue,
    WorkloadTemplate,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


TMPL = WorkloadTemplate("axpy", 512, seed=1)


def job(**kw) -> OffloadJob:
    return OffloadJob(TMPL, policy="BLOCK", seed=1, **kw)


# -- validation ---------------------------------------------------------------

@pytest.mark.parametrize("priority", [0.0, -1.0, float("inf"), "high", None])
def test_validate_rejects_bad_priority(priority):
    with pytest.raises(JobSpecError, match="priority"):
        job(priority=priority).validate()


@pytest.mark.parametrize("deadline", [0.0, -0.5, "soon"])
def test_validate_rejects_bad_deadline(deadline):
    with pytest.raises(JobSpecError, match="deadline"):
        job(deadline_s=deadline).validate()


def test_validate_accepts_defaults_and_sane_values():
    job().validate()
    job(priority=4, deadline_s=2.5).validate()


# -- WeightedFairQueue priority charge ----------------------------------------

class Item:
    def __init__(self, priority: float = 1.0):
        self.priority = priority


def test_wfq_priority_scales_serve_frequency():
    """Priority-3 items cost 1/3 pass: tenant a is served 3x as often."""
    q = WeightedFairQueue(priority_of=lambda it: it.priority)
    for _ in range(9):
        q.push("a", Item(priority=3.0))
        q.push("b", Item(priority=1.0))
    order = [q.pop()[0] for _ in range(12)]
    assert order.count("a") == 9
    assert order.count("b") == 3


def test_wfq_priority_does_not_reorder_within_tenant():
    q = WeightedFairQueue(priority_of=lambda it: it.priority)
    low, high = Item(priority=1.0), Item(priority=100.0)
    q.push("t", low)
    q.push("t", high)
    assert q.pop()[1] is low  # FIFO within the tenant, always


def test_wfq_priority_composes_with_tenant_weight():
    """Charge is 1/(weight*priority): weight 2 x priority 2 = 4x service."""
    weights = {"a": 2.0, "b": 1.0}
    q = WeightedFairQueue(
        weight_of=lambda t: weights[t],
        priority_of=lambda it: it.priority,
    )
    for _ in range(8):
        q.push("a", Item(priority=2.0))
        q.push("b", Item(priority=1.0))
    order = [q.pop()[0] for _ in range(10)]
    assert order.count("a") == 8
    assert order.count("b") == 2


def test_wfq_pop_matching_charges_by_priority():
    q = WeightedFairQueue(priority_of=lambda it: it.priority)
    q.push("a", Item(priority=4.0))
    q.push("a", Item(priority=4.0))
    q.push("b", Item(priority=1.0))
    q.pop_matching(lambda it: it.priority == 4.0, 2)
    # Serving two priority-4 items cost a only 0.5 pass; b pays 1.0 per
    # serve, so a would still win the next tie-break at equal pass.
    assert q._pass["a"] == pytest.approx(0.5)


def test_wfq_non_positive_priority_is_an_error():
    q = WeightedFairQueue(priority_of=lambda it: 0.0)
    q.push("t", object())
    with pytest.raises(ValueError, match="priority"):
        q.pop()


# -- service-level deadline expiry --------------------------------------------

def test_deadline_elapsed_in_queue_expires_job(gpu4):
    clock = FakeClock()

    async def main():
        async with OffloadService(
            gpu4, clock=clock
        ) as svc:
            h = await svc.submit(job(deadline_s=1.0, tag="late"))
            clock.advance(5.0)  # deadline passes before the dispatcher pops
            res = await h  # resolves, never raises
            expired = svc.metrics.counter_value(
                "service_jobs_expired", tenant=res.job.tenant
            )
            runs = svc.metrics.counter_value("service_engine_runs")
        return res, expired, runs

    res, expired, runs = asyncio.run(main())
    assert res.state is JobState.EXPIRED
    assert res.expired and not res.ok and not res.cancelled
    assert res.result is None
    assert isinstance(res.error, JobExpired)
    with pytest.raises(JobExpired):
        res.unwrap()
    assert expired == 1.0
    assert runs == 0.0  # the job never reached an engine


def test_deadline_not_elapsed_runs_normally(gpu4):
    clock = FakeClock()

    async def main():
        async with OffloadService(gpu4, clock=clock) as svc:
            h = await svc.submit(job(deadline_s=60.0))
            return await h

    res = asyncio.run(main())
    assert res.ok
    assert res.state is JobState.DONE


def test_expiry_releases_tenant_in_flight_slot(gpu4):
    clock = FakeClock()

    async def main():
        async with OffloadService(
            gpu4,
            clock=clock,
            default_quota=TenantQuota(max_in_flight=1),
        ) as svc:
            h1 = await svc.submit(job(deadline_s=0.5, tag="a"))
            clock.advance(1.0)
            r1 = await h1  # expiry must release the admission slot
            h2 = await svc.submit(job(tag="b"))
            r2 = await h2
        return r1, r2

    r1, r2 = asyncio.run(main())
    assert r1.expired
    assert r2.ok


def test_dispatched_job_is_never_expired(gpu4):
    """The deadline bounds queue time only; running work completes."""
    clock = FakeClock()

    async def main():
        async with OffloadService(
            gpu4, pool_size=1, coalesce=False, clock=clock
        ) as svc:
            h = await svc.submit(job(deadline_s=1.0))
            await asyncio.sleep(0)  # dispatcher claims the job
            clock.advance(100.0)  # deadline elapses mid-run
            res = await h
        return res

    res = asyncio.run(main())
    assert res.ok
    assert res.state is JobState.DONE


def test_priority_job_served_end_to_end(gpu4):
    """A priority/deadline job runs through the full service path."""

    async def main():
        async with OffloadService(gpu4) as svc:
            h = await svc.submit(job(priority=8.0, deadline_s=300.0))
            return await h

    res = asyncio.run(main())
    assert res.ok
    assert res.job.priority == 8.0
