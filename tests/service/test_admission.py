"""Admission control: quotas, token buckets, typed rejections, fairness."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import AdmissionError
from repro.service import (
    AdmissionController,
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


# -- token bucket / controller ------------------------------------------------

def test_rate_limit_rejects_with_exact_retry_after():
    clock = FakeClock()
    ctl = AdmissionController(
        default_quota=TenantQuota(rate=10.0, burst=2, max_in_flight=100),
        clock=clock,
    )
    ctl.admit("t")
    ctl.admit("t")  # burst exhausted
    with pytest.raises(AdmissionError) as exc:
        ctl.admit("t")
    assert exc.value.reason == "rate"
    assert exc.value.tenant == "t"
    # bucket is empty: the next token lands in exactly 1/rate seconds
    assert exc.value.retry_after_s == pytest.approx(0.1)
    # waiting the hinted time makes the resubmission admissible
    clock.advance(exc.value.retry_after_s)
    ctl.admit("t")


def test_rate_refill_is_capped_at_burst():
    clock = FakeClock()
    ctl = AdmissionController(
        default_quota=TenantQuota(rate=10.0, burst=3, max_in_flight=100),
        clock=clock,
    )
    clock.advance(1000.0)  # a long sleep must not bank more than `burst`
    for _ in range(3):
        ctl.admit("t")
    with pytest.raises(AdmissionError):
        ctl.admit("t")


def test_in_flight_quota_and_release():
    ctl = AdmissionController(
        default_quota=TenantQuota(max_in_flight=2), clock=FakeClock()
    )
    ctl.admit("t")
    ctl.admit("t")
    with pytest.raises(AdmissionError) as exc:
        ctl.admit("t")
    assert exc.value.reason == "in_flight"
    assert exc.value.retry_after_s > 0
    ctl.release("t")
    ctl.admit("t")  # slot freed
    assert ctl._in_flight["t"] == 2
    # other tenants are unaffected by t's quota pressure
    ctl.admit("other")


def test_queue_capacity_is_shared_across_tenants():
    ctl = AdmissionController(
        default_quota=TenantQuota(max_in_flight=100),
        queue_capacity=3,
        clock=FakeClock(),
    )
    ctl.admit("a")
    ctl.admit("b")
    ctl.admit("c")
    with pytest.raises(AdmissionError) as exc:
        ctl.admit("d")
    assert exc.value.reason == "queue_full"


def test_release_without_admit_is_an_error():
    ctl = AdmissionController(clock=FakeClock())
    with pytest.raises(ValueError):
        ctl.release("nobody")


def test_quota_validation():
    # A bool is not a count or a rate, and a count is an integer.
    for kwargs in (
        {"max_in_flight": 0}, {"max_in_flight": True}, {"max_in_flight": 2.5},
        {"burst": True}, {"burst": 2.5}, {"rate": 0.0}, {"rate": True},
        {"weight": -1.0}, {"weight": True}, {"weight": "2"},
    ):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TenantQuota(**kwargs)


# -- weighted-fair queue ------------------------------------------------------

def test_wfq_round_robin_equal_weights():
    q = WeightedFairQueue()
    for i in range(3):
        q.push("a", f"a{i}")
        q.push("b", f"b{i}")
    order = [q.pop()[0] for _ in range(6)]
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_wfq_weighted_service_is_proportional():
    weights = {"heavy": 2.0, "light": 1.0}
    q = WeightedFairQueue(weight_of=lambda t: weights[t])
    for i in range(40):
        q.push("heavy", i)
        q.push("light", i)
    first = [q.pop()[0] for _ in range(30)]
    # stride scheduling: 2:1 service in every window
    assert first.count("heavy") == 20
    assert first.count("light") == 10


def test_wfq_idle_tenant_rejoins_at_virtual_time():
    q = WeightedFairQueue()
    for i in range(10):
        q.push("busy", i)
    for _ in range(8):
        q.pop()
    # a tenant arriving late must not be owed 8 units of back-service
    q.push("late", "x")
    tenant, _ = q.pop()
    assert tenant == "late"  # served next (equal pass, name tie-break)
    assert [q.pop()[0] for _ in range(2)] == ["busy", "busy"]


def test_wfq_pop_matching_charges_fairly():
    q = WeightedFairQueue()
    q.push("a", ("grp", 1))
    q.push("a", ("other", 2))
    q.push("b", ("grp", 3))
    got = q.pop_matching(lambda item: item[0] == "grp", limit=10)
    assert [(t, item[1]) for t, item in got] == [("a", 1), ("b", 3)]
    assert len(q) == 1  # the non-matching item stays, FIFO intact
    tenant, item = q.pop()
    assert (tenant, item) == ("a", ("other", 2))


def test_wfq_pop_empty_raises():
    with pytest.raises(IndexError):
        WeightedFairQueue().pop()


# -- end-to-end quota + fairness through the service --------------------------

def test_over_quota_tenant_is_rejected_while_others_complete(gpu4):
    async def main():
        async with OffloadService(
            gpu4,
            pool_size=1,
            quotas={"hog": TenantQuota(max_in_flight=3)},
        ) as svc:
            handles, rejections = [], []
            for i in range(10):
                job = OffloadJob(
                    TMPL, policy="BLOCK", tenant="hog", seed=1, tag=f"h{i}"
                )
                try:
                    handles.append(await svc.submit(job))
                except AdmissionError as exc:
                    rejections.append(exc)
            for i in range(4):
                handles.append(await svc.submit(OffloadJob(
                    TMPL, policy="BLOCK", tenant="polite", seed=1,
                    tag=f"p{i}",
                )))
            results = await asyncio.gather(*(h.wait() for h in handles))
        return rejections, results

    rejections, results = asyncio.run(main())
    assert len(rejections) == 7  # 10 submitted, quota 3
    assert all(r.reason == "in_flight" for r in rejections)
    assert all(r.retry_after_s > 0 for r in rejections)
    by_tenant: dict[str, int] = {}
    for res in results:
        assert res.ok, res.error
        by_tenant[res.job.tenant] = by_tenant.get(res.job.tenant, 0) + 1
    # the polite tenant's jobs all completed despite the hog's pressure
    assert by_tenant == {"hog": 3, "polite": 4}


def test_weighted_fair_dequeue_under_saturation(gpu4):
    """Under a saturated single-slot pool, service order follows weights."""
    order: list[str] = []

    async def main():
        async with OffloadService(
            gpu4,
            pool_size=1,
            coalesce=False,  # coalescing would merge the probe jobs
            quotas={
                "heavy": TenantQuota(weight=2.0, max_in_flight=64),
                "light": TenantQuota(weight=1.0, max_in_flight=64),
            },
        ) as svc:
            # One blocker saturates the pool so everything below queues up.
            blocker = await svc.submit(
                OffloadJob(TMPL, policy="BLOCK", tenant="light", seed=1)
            )
            await asyncio.sleep(0)  # let the dispatcher claim the slot
            handles = []
            for i in range(9):
                handles.append(await svc.submit(OffloadJob(
                    TMPL, policy="BLOCK", tenant="heavy", seed=1,
                    tag=f"h{i}",
                )))
                handles.append(await svc.submit(OffloadJob(
                    TMPL, policy="BLOCK", tenant="light", seed=1,
                    tag=f"l{i}",
                )))
            results = await asyncio.gather(*(h.wait() for h in handles))
            await blocker.wait()
            for res in sorted(results, key=lambda r: r.started_at):
                order.append(res.job.tenant)

    asyncio.run(main())
    # 2:1 stride service: every early window leans heavy.
    assert order.count("heavy") == 9 and order.count("light") == 9
    # exact stride sequence: heavy (pass += 0.5) vs light (pass += 1.0)
    assert order[:12] == [
        "heavy", "heavy", "heavy", "light", "heavy", "heavy",
        "light", "heavy", "heavy", "light", "heavy", "heavy",
    ]
