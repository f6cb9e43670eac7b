"""Numerics by span: what a run of a span-exact kernel computes, and when.

Such a run records each committed chunk and calls ``execute_chunk`` at
``finalize``, once per merged run of contiguous rows with a bounded
footprint, whichever devices committed them.  These tests pin the counts
that make it cheap and the contracts that keep it exact: merged runs cross
memory kinds but never the cap and equal per-chunk execution, a faulted run
still executes every row exactly once, reductions are untouched, and every
``MappingError`` still fires.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.apps import OnlineSumKernel
from repro.bench import ALL_POLICIES
from repro.engine.core import _SPAN_CAP_BYTES, make_backend
from repro.errors import FaultError, MappingError
from repro.faults.plan import DeviceDropout, FaultPlan, TransferError
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.machine.spec import MemoryKind
from repro.runtime.runtime import HompRuntime
from repro.sched.registry import make_scheduler


def _python_calls(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _recording(kernel) -> list[tuple[int, int]]:
    """Record every ``execute_chunk`` call the engine makes on ``kernel``."""
    calls = []
    execute = kernel.execute_chunk

    def record(rows):
        calls.append((rows.start, rows.stop))
        return execute(rows)

    kernel.execute_chunk = record
    return calls


# ------------------------------------------------------------ count budgets


def test_a_dynamic_axpy_job_calls_the_kernel_once_within_its_call_budget():
    rt = HompRuntime(gpu4_node())
    rt.parallel_for(make_kernel("axpy", 2048), schedule="SCHED_DYNAMIC")  # warm
    kernel = make_kernel("axpy", 2048)
    result = None

    def job():
        nonlocal result
        result = rt.parallel_for(kernel, schedule="SCHED_DYNAMIC")

    calls = _python_calls(job)
    assert sum(t.chunks for t in result.traces) >= 40
    assert kernel.stats.chunks == 1  # 50 before: one call per chunk
    assert kernel.stats.iterations == 2048
    assert calls <= 1_100, calls  # 2,191 before


# ------------------------------------------------------- merged-run shape


def test_runs_cross_memory_kinds_but_never_the_cap_on_a_mixed_node():
    machine = full_node()
    shared_of = [d.memory is not MemoryKind.DISCRETE for d in machine.devices]
    assert len(set(shared_of)) == 2  # host memory and discrete devices
    eng = make_backend("virtual", machine, record_events=True)
    kernel = make_kernel("axpy", 200_000, seed=1)
    calls = _recording(kernel)
    eng.run(kernel, make_scheduler("SCHED_DYNAMIC", chunk_pct=0.002))

    chunks = sorted(
        (e.chunk.start, e.chunk.stop, shared_of[e.devid])
        for e in eng.timeline.events
    )
    row_bytes = sum(kernel.row_nbytes(name) for name in ("x", "y"))
    assert len(calls) < len(chunks) / 4
    _assert_calls_tile_on_chunk_bounds(chunks, calls)
    widest = 0
    mixed = 0
    for start, stop in calls:
        inside = [c for c in chunks if start <= c[0] and c[1] <= stop]
        mixed += len({c[2] for c in inside}) == 2
        if len(inside) > 1:
            assert (stop - start) * row_bytes <= _SPAN_CAP_BYTES
            widest = max(widest, (stop - start) * row_bytes)
    assert mixed  # a run merged host and discrete rows
    assert widest > _SPAN_CAP_BYTES // 2  # the cap, not the chunks, cut runs
    np.testing.assert_array_equal(kernel.arrays["y"], kernel.reference()["y"])


#: ``execute_chunk`` calls per ``full_node`` run below at the commit before
#: merged runs could cross memory kinds (482a77e), when they could not.
_CALLS_BEFORE_CROSS_KIND = {
    ("axpy", "BLOCK"): 2, ("axpy", "SCHED_DYNAMIC"): 3,
    ("stencil", "BLOCK"): 2, ("stencil", "SCHED_DYNAMIC"): 3,
}


@pytest.mark.parametrize("name, n", [("axpy", 16_000), ("stencil", 128)])
@pytest.mark.parametrize("policy", ["BLOCK", "SCHED_DYNAMIC"])
def test_cross_kind_runs_equal_per_chunk_execution(name, n, policy):
    eng = make_backend("virtual", full_node(), record_events=True)
    kernel = make_kernel(name, n, seed=6)
    calls = _recording(kernel)
    eng.run(kernel, make_scheduler(policy))
    assert len(calls) <= _CALLS_BEFORE_CROSS_KIND[name, policy]

    per_chunk = make_kernel(name, n, seed=6)
    events = eng.timeline.events
    for e in events:  # commit order, one call each
        per_chunk.execute_chunk(e.chunk)
    assert per_chunk.stats.chunks == len(events) > len(calls)
    for array, value in kernel.arrays.items():
        assert value.tobytes() == per_chunk.arrays[array].tobytes(), array


def _assert_calls_tile_on_chunk_bounds(chunks, calls) -> None:
    """The calls' row ranges tile ``[0, n)``, cut only at chunk bounds."""
    bounds = {c[1] for c in chunks}
    spans = sorted(c[:2] for c in calls)
    assert spans[0][0] == 0 and spans[-1][1] == chunks[-1][1]
    for (_, b), (a, _) in zip(spans, spans[1:]):
        assert a == b and b in bounds


# ------------------------------------------------------ exactly once, faulted


def test_dropout_and_retries_give_the_fault_free_bytes_and_each_row_once():
    def run(plan):
        eng = make_backend(
            "virtual", gpu4_node(), fault_plan=plan,
            resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=1)),
        )
        kernel = make_kernel("axpy", 60_000, seed=7)
        result = eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
        return kernel, result, eng

    base_kernel, base, _ = run(None)
    plan = FaultPlan.of(
        DeviceDropout(1, base.total_time_s / 2), TransferError(2, 0.3, seed=5)
    )
    kernel, result, eng = run(plan)
    kinds = {f.kind.value for f in eng.timeline.faults}
    assert {"dropout", "retry"} <= kinds
    assert result.traces[1].lost
    assert kernel.stats.iterations == kernel.n_iters
    assert kernel.arrays["y"].tobytes() == base_kernel.arrays["y"].tobytes()


def test_a_run_that_raises_computes_nothing():
    kernel = make_kernel("axpy", 20_000, seed=3)
    before = kernel.arrays["y"].copy()
    plan = FaultPlan.of(*(DeviceDropout(d, 1e-5) for d in range(4)))
    eng = make_backend("virtual", gpu4_node(), fault_plan=plan)
    with pytest.raises(FaultError):
        eng.run(kernel, make_scheduler("SCHED_DYNAMIC"))
    assert kernel.stats.chunks == 0
    np.testing.assert_array_equal(kernel.arrays["y"], before)


# ------------------------------------------------------------- reductions


#: blake2b-8 of the reduction hex values of ``sum``-60k under every Table II
#: policy, then four ``SCHED_DYNAMIC`` online-sum stream batches, generated
#: at the commit before numerics were deferred (9b3fd46).
_REDUCTIONS_AT_PARENT = {"gpu4": "36e80d48f125dcf5", "full": "7f7f35ecbf279714"}


@pytest.mark.parametrize("name, machine", [("gpu4", gpu4_node), ("full", full_node)])
def test_reduction_bytes_equal_the_parents(name, machine):
    vals = []
    for policy in ALL_POLICIES:
        kernel = make_kernel("sum", 60_000, seed=5)
        result = HompRuntime(machine(), seed=0).parallel_for(kernel, schedule=policy)
        vals.append(result.reduction.hex())
    stream = HompRuntime(machine(), seed=0).stream(
        OnlineSumKernel(4_000, seed=5), batches=4, window=64,
        schedule="SCHED_DYNAMIC",
    )
    vals += [r.reduction.hex() for r in stream.results]
    digest = hashlib.blake2b(" ".join(vals).encode(), digest_size=8).hexdigest()
    assert digest == _REDUCTIONS_AT_PARENT[name]


# ------------------------------------------------------------ map checks


@pytest.mark.parametrize("name", ["axpy", "matvec"])
def test_a_rank_rebind_still_raises_mapping_error(name):
    kernel = make_kernel(name, 256, seed=1)
    assert kernel.span_exact is (name == "axpy")
    kernel.arrays["x"] = np.zeros((256, 2))
    with pytest.raises(MappingError, match="rank"):
        HompRuntime(gpu4_node()).parallel_for(kernel, schedule="SCHED_DYNAMIC")
