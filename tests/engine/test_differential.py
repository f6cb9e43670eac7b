"""Cross-backend differential tests: both executors, one contract.

Whatever the backend's notion of time, an offload must (a) cover every
iteration exactly once, (b) keep its chunk log and device traces
consistent with each other, and (c) produce the same numbers.  The wall
clock makes threaded timings nondeterministic, so timings are only
sanity-checked; numerics are compared exactly where order permits and to
tolerance where it does not.
"""

import numpy as np
import pytest

from repro.dist.policy import Block, Cyclic
from repro.engine.core import make_backend
from repro.faults.plan import DeviceDropout, FaultPlan, Slowdown, TransferError
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.kernels.registry import make_kernel
from repro.machine.presets import cpu_spec, full_node, gpu4_node, homogeneous_node
from repro.sched.history import HistoryDB
from repro.sched.registry import SCHEDULERS, make_scheduler

BACKENDS = ("virtual", "threaded")
GRID = [
    ("BLOCK", "axpy"),
    ("BLOCK", "sum"),
    ("SCHED_DYNAMIC", "axpy"),
    ("SCHED_DYNAMIC", "sum"),
    ("SCHED_GUIDED", "matvec"),
    ("SCHED_PROFILE_AUTO", "sum"),
]
N = 60_000
#: matvec is O(n^2) in memory (an n x n matrix); keep its loop small.
SIZES = {"matvec": 2_000}


def run(
    backend, policy, kname, *, machine=None, n=None, seed=7,
    sched_kw=None, partition=None, **opts,
):
    machine = gpu4_node() if machine is None else machine
    n = SIZES.get(kname, N) if n is None else n
    eng = make_backend(
        backend, machine, seed=0, collect_chunks=True, **opts
    )
    kernel = make_kernel(kname, n, seed=seed)
    for name, dim0_policy in (partition or {}).items():
        kernel.set_partition(name, dim0_policy)
    result = eng.run(kernel, make_scheduler(policy, **(sched_kw or {})))
    return kernel, result, eng


def check_invariants(kernel, result, eng, *, n=None):
    n = kernel.n_iters if n is None else n
    # (a) full coverage, no double counting
    assert sum(t.iters for t in result.traces) == n
    chunks = sorted((c.start, c.stop) for _, c in eng.chunk_log)
    covered = 0
    prev_stop = 0
    for start, stop in chunks:
        assert start == prev_stop, "chunk log has gaps or overlaps"
        prev_stop = stop
        covered += stop - start
    assert covered == n and prev_stop == n
    # (b) chunk_log and traces agree per device
    per_dev_iters = {t.devid: t.iters for t in result.traces}
    per_dev_chunks = {t.devid: t.chunks for t in result.traces}
    for devid, trace_iters in per_dev_iters.items():
        logged = [c for d, c in eng.chunk_log if d == devid]
        assert sum(len(c) for c in logged) == trace_iters
        assert len(logged) == per_dev_chunks[devid]
    # (c) timings exist and are internally consistent
    assert result.total_time_s > 0
    for t in result.traces:
        if t.participated:
            assert t.finish_s <= result.total_time_s + 1e-9


@pytest.mark.parametrize("policy,kname", GRID, ids=[f"{p}-{k}" for p, k in GRID])
@pytest.mark.parametrize("backend", BACKENDS)
def test_invariants_hold_per_backend(backend, policy, kname):
    kernel, result, eng = run(backend, policy, kname)
    check_invariants(kernel, result, eng)


@pytest.mark.parametrize("policy,kname", GRID, ids=[f"{p}-{k}" for p, k in GRID])
def test_backends_agree_numerically(policy, kname):
    k_v, r_v, _ = run("virtual", policy, kname)
    k_t, r_t, _ = run("threaded", policy, kname)
    if k_v.is_reduction:
        # Chunk boundaries and combine order differ across backends, so
        # agreement is to floating-point tolerance, not bit-exact.
        assert np.isclose(r_v.reduction, r_t.reduction, rtol=1e-9)
    else:
        ref = k_v.reference()
        for name, expected in ref.items():
            assert np.allclose(k_v.arrays[name], expected)
            assert np.allclose(k_t.arrays[name], expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_trace_buckets_populated(backend):
    _, result, _ = run(backend, "SCHED_DYNAMIC", "sum")
    participating = [t for t in result.traces if t.participated]
    assert participating
    # Satellite fix pinned here: the threaded executor used to leave
    # sched_s at 0.0 forever; both backends must now charge it.
    assert sum(t.sched_s for t in participating) > 0.0
    assert sum(t.compute_s for t in participating) > 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_executor_meta_distinguishes_backends(backend):
    _, result, _ = run(backend, "BLOCK", "sum")
    if backend == "threaded":
        assert result.meta["executor"] == "threaded"
    else:
        # Virtual meta layout is pinned by bit-identity: no executor key.
        assert "executor" not in result.meta


# ------------------------------------------------- fault parity (threaded)


def fault_machine():
    return homogeneous_node(4, cpu_spec())


def every_scheduler():
    """One case per registered scheduler — ``(notation, constructor
    kwargs as a factory, dim-0 partitions it needs)`` — ALIGN twice, since
    a CYCLIC-partitioned target gives each device many ranges, not one."""
    for name in SCHEDULERS:
        if name == "ALIGN":
            for policy in (Block(), Cyclic(1_000)):
                yield pytest.param(
                    name, lambda: {"target": "x"}, {"x": policy},
                    id=f"ALIGN-{type(policy).__name__}",
                )
        elif name == "HISTORY_AUTO":
            yield pytest.param(name, lambda: {"db": HistoryDB()}, None, id=name)
        else:
            yield pytest.param(name, dict, None, id=name)


@pytest.mark.parametrize("when", ["claimed-nothing", "mid-run"])
@pytest.mark.parametrize("policy,sched_kw,partition", list(every_scheduler()))
@pytest.mark.parametrize("backend", BACKENDS)
def test_dropout_conserves_iterations_under_every_scheduler(
    backend, policy, sched_kw, partition, when
):
    """A dropped device's share — unclaimed (t=0) or partly served — ends
    up on the survivors whatever the scheduler: the planned ones inherit
    the surrender from ``PlannedScheduler``, the clock-driven ones never
    reserve.  HISTORY_AUTO and ALIGN used to lose the unclaimed share."""

    def go(**opts):
        return run(
            backend, policy, "axpy",
            sched_kw=sched_kw(), partition=partition, **opts,
        )

    k_base, base, _ = go()
    if when == "claimed-nothing":
        t_drop = 0.0
    else:
        # Virtual time: half the fault-free makespan.  Wall clock: 0.1 ms,
        # which may land before, inside or after the victim's share.
        t_drop = base.total_time_s / 2 if backend == "virtual" else 1e-4
    kernel, result, eng = go(fault_plan=FaultPlan.of(DeviceDropout(1, t_drop)))
    check_invariants(kernel, result, eng)
    np.testing.assert_array_equal(kernel.arrays["y"], k_base.arrays["y"])
    if when == "claimed-nothing":
        assert result.traces[1].lost and result.traces[1].iters == 0


class TestThreadedFaultParity:
    """The wall-clock backend honours the same fault semantics as the
    simulator: slowdowns stretch, dropouts kill and orphan, transfer
    errors retry with bounded attempts, quarantine removes repeat
    offenders — and no iteration is ever lost or double-executed."""

    def test_slowdown_plus_dropout_full_coverage(self):
        # Dropout early enough (0.1 ms wall) that device 2 is certain to
        # die while the offload is still in flight.
        plan = FaultPlan.of(
            Slowdown(0, 3.0),
            DeviceDropout(2, 1e-4),
        )
        eng = make_backend(
            "threaded", fault_machine(), fault_plan=plan,
            resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=2)),
            collect_chunks=True,
        )
        kernel = make_kernel("sum", N, seed=3)
        result = eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
        check_invariants(kernel, result, eng)
        # The dropped device is recorded lost and its work was adopted.
        lost = [t for t in result.traces if t.lost_at is not None]
        assert [t.devid for t in lost] == [2]
        assert result.meta["faults"]["lost"] == [lost[0].name]
        assert any(f.kind.value == "dropout" for f in eng.faults)
        # Exactly-once numerics survive the reassignment.
        assert np.isclose(result.reduction, kernel.reference(), rtol=1e-9)

    def test_transfer_errors_retry_and_cover(self):
        # Slow the healthy devices down so the flaky one is guaranteed to
        # participate (wall-clock thread start order is a race; without
        # this, three fast proxies can drain the loop before device 1's
        # thread gets a chunk at all).
        plan = FaultPlan.of(
            TransferError(1, 0.35, seed=11),
            Slowdown(0, 30.0), Slowdown(2, 30.0), Slowdown(3, 30.0),
        )
        eng = make_backend(
            "threaded", fault_machine(), fault_plan=plan,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_retries=3, backoff_s=1e-5),
            ),
            collect_chunks=True,
        )
        kernel = make_kernel("axpy", N, seed=5)
        result = eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
        check_invariants(kernel, result, eng)
        assert np.allclose(kernel.arrays["y"], kernel.reference()["y"])
        flaky = result.traces[1]
        assert flaky.chunks > 0  # the slowdowns did their job
        assert flaky.retries > 0
        assert flaky.retry_s > 0.0
        assert result.meta["faults"]["retries"] > 0

    def test_hostile_link_quarantines_and_reassigns(self):
        # The plan's counter-keyed draws make device 1's first attempts
        # fail deterministically (p close to 1), so its first two chunks
        # exhaust retries and the health tracker quarantines it; its
        # orphans must land on the survivors without losing a single
        # iteration.  Healthy devices are slowed so device 1 is certain
        # to be served chunks before the loop drains.
        plan = FaultPlan.of(
            TransferError(1, 0.999, seed=2),
            Slowdown(0, 30.0), Slowdown(2, 30.0), Slowdown(3, 30.0),
        )
        eng = make_backend(
            "threaded", fault_machine(), fault_plan=plan,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_retries=1, backoff_s=1e-6),
                quarantine_after=2,
            ),
            collect_chunks=True,
        )
        kernel = make_kernel("sum", N, seed=9)
        result = eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
        check_invariants(kernel, result, eng)
        assert any(f.kind.value == "quarantine" for f in eng.faults)
        quarantined = result.meta["faults"]["quarantined"]
        assert result.traces[1].name in quarantined
        assert np.isclose(result.reduction, kernel.reference(), rtol=1e-9)

    def test_same_plan_same_answer_as_virtual(self):
        # A survivable faulted run must produce the fault-free numbers on
        # both backends (the paper's resilience claim, backend-agnostic).
        plan = FaultPlan.of(
            Slowdown(0, 2.0),
            TransferError(1, 0.2, seed=4),
            DeviceDropout(2, 0.003),
        )
        res = ResiliencePolicy(
            retry=RetryPolicy(max_retries=2, backoff_s=1e-5),
            quarantine_after=3,
        )
        answers = []
        for backend in BACKENDS:
            eng = make_backend(
                backend, full_node(), fault_plan=plan, resilience=res,
            )
            kernel = make_kernel("sum", N, seed=13)
            result = eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
            assert sum(t.iters for t in result.traces) == N
            answers.append(result.reduction)
        assert np.isclose(answers[0], answers[1], rtol=1e-9)
