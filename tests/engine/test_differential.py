"""Differential tests: one contract for every offload.

Whatever the schedule or the faults, an offload must (a) cover every
iteration exactly once, (b) keep its chunk log and device traces
consistent with each other, and (c) produce the same numbers as the
fault-free run.
"""

import numpy as np
import pytest

from repro.dist.policy import Block
from repro.engine.core import make_backend
from repro.faults.plan import DeviceDropout, FaultPlan
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.sched.history import HistoryDB
from repro.sched.registry import SCHEDULERS, make_scheduler

#: The engine's make_backend name (a parameter, so case ids name it).
BACKENDS = ("virtual",)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_trace_buckets_populated(backend):
    _, result, _ = run(backend, "SCHED_DYNAMIC", "sum")
    participating = [t for t in result.traces if t.participated]
    assert participating
    assert sum(t.sched_s for t in participating) > 0.0
    assert sum(t.compute_s for t in participating) > 0.0


# ------------------------------------------------------------ fault parity


def every_scheduler():
    """One case per registered scheduler — ``(notation, constructor
    kwargs as a factory, dim-0 partitions it needs)``."""
    for name in SCHEDULERS:
        if name == "ALIGN":
            yield pytest.param(
                name, lambda: {"target": "x"}, {"x": Block()}, id="ALIGN-Block"
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
        t_drop = base.total_time_s / 2  # half the fault-free makespan
    kernel, result, eng = go(fault_plan=FaultPlan.of(DeviceDropout(1, t_drop)))
    check_invariants(kernel, result, eng)
    np.testing.assert_array_equal(kernel.arrays["y"], k_base.arrays["y"])
    if when == "claimed-nothing":
        assert result.traces[1].lost and result.traces[1].iters == 0
