"""Seeded fault injection through the offload service.

The service runs every group on the event-loop thread, so the order in
which jobs interleave is a function of the loop's schedule alone: a seeded
plan replays exactly.  Each seed drives one service (``pool_size`` 1 or 2,
more submits than leases, an injectable clock) through a mix of internal
failures — an engine raising mid-``run`` or mid-``run_many``, a backend
whose first construction raises, cancels while queued and after dispatch,
deadlines that lapse in the queue — and checks that no job is lost,
duplicated or run twice, that no admission or pool slot leaks, and that
the same seed gives the same ``(tag, state, batch_size)`` sequence.

``REPRO_FAULT_SEEDS`` sets the sweep width (default 300).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import random

from repro.engine.simulator import OffloadEngine
from repro.errors import JobExpired
from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime
from repro.service import (
    JobState,
    OffloadJob,
    OffloadService,
    TenantQuota,
    WorkloadTemplate,
)

SEEDS = int(os.environ.get("REPRO_FAULT_SEEDS", "300"))
MACHINE = gpu4_node()
TEMPLATES = (WorkloadTemplate("axpy", 256, seed=1),
             WorkloadTemplate("sum", 256, seed=2))
#: Two policies that coalesce and one that always runs solo.
POLICIES = ("BLOCK", "MODEL_1_AUTO", "SCHED_DYNAMIC")
FATES = ("run", "cancel-queued", "cancel-late", "deadline")


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class BuildFailed(RuntimeError):
    pass


class RunFailed(RuntimeError):
    pass


def faulty_backend(clock: FakeClock, fail_build: bool,
                   fail_calls: "set[int]", on_call):
    """A fresh virtual-engine class whose counters start at zero.

    Every engine call advances ``clock`` by one second per job it was
    handed and then calls ``on_call()``.  The first construction raises
    when ``fail_build``; the k-th call (over all instances) for each k in
    ``fail_calls`` does part of its work and then raises.
    """

    class Faulty(OffloadEngine):
        built = 0
        calls = 0
        jobs_run = 0

        def __init__(self, **options):
            cls = type(self)
            cls.built += 1
            if fail_build and cls.built == 1:
                raise BuildFailed("device queue could not be opened")
            super().__init__(**options)

        def _enter(self, jobs: int) -> bool:
            cls = type(self)
            cls.calls += 1
            cls.jobs_run += jobs
            clock.t += jobs
            on_call()
            return cls.calls in fail_calls

        def run(self, *args, **kwargs):
            fail = self._enter(1)
            result = super().run(*args, **kwargs)
            if fail:
                raise RunFailed("run")
            return result

        def run_many(self, requests):
            if self._enter(len(requests)):
                super().run_many(requests[:1])
                raise RunFailed("run_many")
            return super().run_many(requests)

    return Faulty


_DIRECT: dict = {}


def direct_bytes(job: OffloadJob) -> bytes:
    """Pickle of the same job run by a direct ``parallel_for``."""
    key = (job.factory, job.policy, job.seed)
    if key not in _DIRECT:
        rt = HompRuntime(MACHINE, seed=job.seed)
        _DIRECT[key] = pickle.dumps(
            rt.parallel_for(job.factory(), schedule=job.policy)
        )
    return _DIRECT[key]


def serve(seed: int):
    """Drive one seeded plan through a faulty service; check every
    invariant and return the resolution sequence and what happened."""
    rng = random.Random(seed)
    pool_size = rng.choice((1, 2))
    n = rng.randint(pool_size + 2, 9)
    fail_build = rng.random() < 0.5
    fail_calls = set(rng.sample(range(1, n + 1), rng.randint(0, 2)))
    plan = []
    for i in range(n):
        fate = rng.choices(FATES, weights=(5, 1, 1, 1))[0]
        plan.append((OffloadJob(
            rng.choice(TEMPLATES), policy=rng.choice(POLICIES),
            seed=rng.randint(0, 1), tag=f"j{i}",
            deadline_s=0.5 if fate == "deadline" else None,
        ), fate))
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, 2)))
    waves = [plan[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    gaps = [(rng.choice((0.0, 1.0)), rng.randint(0, 3)) for _ in waves]

    clock = FakeClock()
    late: list = []
    cancelled_late: dict[str, bool] = {}

    def cancel_late():
        while late:
            tag, handle = late.pop()
            cancelled_late[tag] = handle.cancel()

    backend = faulty_backend(clock, fail_build, fail_calls, cancel_late)
    order: list = []
    resolutions: dict[str, int] = {}

    def resolved(future):
        res = future.result()
        resolutions[res.job.tag] = resolutions.get(res.job.tag, 0) + 1
        order.append((res.job.tag, res.state, res.batch_size))

    async def main():
        svc = OffloadService(
            MACHINE, backend=backend, pool_size=pool_size,
            clock=clock, default_quota=TenantQuota(max_in_flight=64),
        )
        handles = {}
        async with svc:
            for wave, (advance, yields) in zip(waves, gaps):
                for job, fate in wave:
                    handle = handles[job.tag] = await svc.submit(job)
                    handle._future.add_done_callback(resolved)
                    if fate == "cancel-queued":
                        assert handle.cancel() is True, job.tag
                    elif fate == "cancel-late":
                        late.append((job.tag, handle))
                clock.t += advance
                for _ in range(yields):
                    await asyncio.sleep(0)
        await asyncio.sleep(0)  # deliver the done callbacks
        return svc, {tag: h._future.result() for tag, h in handles.items()}

    svc, results = asyncio.run(main())
    where = f"seed {seed}"
    assert sorted(resolutions) == sorted(results) and set(
        resolutions.values()) == {1}, (where, resolutions)
    assert svc._admission.total_in_flight() == 0, where
    assert svc._pool.active == 0, where
    assert svc._unfinished == 0, where
    assert not svc._running, where

    ran = 0
    for job, fate in plan:
        res = results[job.tag]
        late_cancel = cancelled_late.get(job.tag)
        assert (res.state is JobState.CANCELLED) == (
            fate == "cancel-queued" or late_cancel is True
        ), (where, job.tag, res.state, late_cancel)
        if res.state is JobState.EXPIRED:
            assert fate == "deadline" and isinstance(res.error, JobExpired)
        elif res.state is JobState.FAILED:
            assert isinstance(res.error, (BuildFailed, RunFailed)), res.error
            ran += isinstance(res.error, RunFailed)
        elif res.state is JobState.DONE:
            ran += 1
            assert pickle.dumps(res.result) == direct_bytes(job), (
                where, job.tag)
    # Each job handed to an engine ran exactly once.
    assert backend.jobs_run == ran, (where, backend.jobs_run, ran)
    happened = {
        "pool_size": pool_size,
        "expired": any(r.expired for r in results.values()),
        "cancelled": any(r.cancelled for r in results.values()),
        "build_failed": any(isinstance(r.error, BuildFailed)
                            for r in results.values()),
        "solo_failed": any(isinstance(r.error, RunFailed)
                           and r.error.args == ("run",)
                           for r in results.values()),
        "group_failed": any(isinstance(r.error, RunFailed)
                            and r.error.args == ("run_many",)
                            for r in results.values()),
        "coalesced": any(r.coalesced for r in results.values()),
        "mate_cancel_refused": any(
            ok is False and results[tag].state is JobState.DONE
            and results[tag].batch_size > 1
            for tag, ok in cancelled_late.items()),
    }
    return order, happened


def test_seeded_fault_sweep_loses_duplicates_and_leaks_nothing():
    seen: dict = {}
    for seed in range(SEEDS):
        order, happened = serve(seed)
        assert serve(seed)[0] == order, f"seed {seed} did not replay"
        for what, value in happened.items():
            seen.setdefault(what, set()).add(value)
    # The sweep reached every fault and both pool widths.
    assert seen.pop("pool_size") == {1, 2}
    missing = [what for what, values in seen.items() if True not in values]
    assert not missing, missing


def test_a_cancel_after_the_job_was_taken_as_a_mate_returns_false():
    clock = FakeClock()
    attempts: list[bool] = []
    handles: list = []

    def cancel_mate():
        attempts.append(handles[1].cancel())

    backend = faulty_backend(clock, False, set(), cancel_mate)

    async def main():
        async with OffloadService(
            MACHINE, backend=backend, pool_size=1,
            clock=clock,
        ) as svc:
            for policy in ("BLOCK", "MODEL_1_AUTO"):
                handles.append(await svc.submit(
                    OffloadJob(TEMPLATES[0], policy=policy, tag=policy)))
            return [await h for h in handles], svc.metrics

    results, metrics = asyncio.run(main())
    assert attempts == [False]
    assert [(r.state, r.batch_size) for r in results] == [
        (JobState.DONE, 2), (JobState.DONE, 2)]
    assert backend.jobs_run == 2
    assert metrics.counter_value("service_jobs_cancelled",
                                 tenant="default") == 0.0
