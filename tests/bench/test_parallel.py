"""One way to run a grid: a fault-free, untraced grid runs its cells as
one ``run_many`` batch, every other grid per cell — and both
are bit-identical to a per-cell ``run_cell`` loop, in the same order."""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.bench.runner import run_cell, run_grid, runner_metrics
from repro.bench.workloads import BENCH_SCALE_ENV, WorkloadFactory
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import OffloadResult
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node

POLICIES = ("BLOCK", "SCHED_DYNAMIC", "MODEL_1_AUTO")


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setenv(BENCH_SCALE_ENV, "0.004")


def _per_cell(machine, ks, policies=POLICIES, **options):
    """The reference: every cell through ``run_cell``."""
    return {
        kname: {
            policy: run_cell(machine, factory, policy, **options)
            for policy in policies
        }
        for kname, factory in ks.items()
    }


def _assert_results_identical(a: OffloadResult, b: OffloadResult) -> None:
    assert a.total_time_s == b.total_time_s
    assert a.reduction == b.reduction
    assert a.algorithm == b.algorithm
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert ta.name == tb.name
        assert ta.compute_s == tb.compute_s
        assert ta.xfer_in_s == tb.xfer_in_s
        assert ta.xfer_out_s == tb.xfer_out_s
        assert ta.chunks == tb.chunks
        assert ta.iters == tb.iters
    assert pickle.dumps(a) == pickle.dumps(b)


def test_parallel_grid_matches_serial_cell_for_cell():
    machine = gpu4_node()
    ks = {n: WorkloadFactory(n) for n in ("axpy", "sum", "stencil")}
    ref = _per_cell(machine, ks)
    grid = run_grid(machine, ks, policies=POLICIES)
    assert list(grid.results) == list(ref)
    for kname in ks:
        assert list(grid.results[kname]) == list(POLICIES)
        for policy in POLICIES:
            _assert_results_identical(ref[kname][policy], grid.results[kname][policy])


def test_faulted_grid_matches_serial_cell_for_cell():
    from repro.faults.plan import DeviceDropout, FaultPlan, Slowdown

    machine = gpu4_node()
    ks = {n: WorkloadFactory(n) for n in ("axpy", "sum")}
    plan = FaultPlan.of(
        Slowdown(devid=1, factor=3.0),
        DeviceDropout(devid=2, t=0.0005),
        name="mixed",
    )
    ref = _per_cell(machine, ks, fault_plan=plan)
    grid = run_grid(machine, ks, policies=POLICIES, fault_plan=plan)
    for kname in ks:
        for policy in POLICIES:
            a = ref[kname][policy]
            b = grid.results[kname][policy]
            _assert_results_identical(a, b)
            assert a.meta["faults"] == b.meta["faults"]


def test_one_batch_runs_every_cell():
    machine = gpu4_node()
    ks = {"axpy": WorkloadFactory("axpy")}
    before = runner_metrics().counter_value("run_grid_batch_cells")
    run_grid(machine, ks, policies=POLICIES)
    run_grid(machine, ks, policies=POLICIES)
    # every sweep computes every cell, in one batch each time
    assert runner_metrics().counter_value("run_grid_batch_cells") == (
        before + 2 * len(POLICIES)
    )


def test_lambda_factories_fall_back_to_serial():
    """An anonymous factory still batches: its cells share one kernel and
    equal the per-cell loop's."""
    machine = gpu4_node()
    ks = {"axpy": lambda: make_kernel("axpy", 400)}
    ref = _per_cell(machine, ks, ("BLOCK", "MODEL_1_AUTO"))
    grid = run_grid(machine, ks, policies=("BLOCK", "MODEL_1_AUTO"))
    for policy in ("BLOCK", "MODEL_1_AUTO"):
        _assert_results_identical(ref["axpy"][policy], grid.results["axpy"][policy])


# ---------------------------------------- how a grid runs its misses


@pytest.fixture()
def engine_calls(monkeypatch):
    """Count the engine's ``run`` and ``run_many`` calls."""
    calls = {"run": 0, "run_many": 0}

    def counting(cls, name, key):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(OffloadEngine, "run", "run")
    counting(OffloadEngine, "run_many", "run_many")
    return calls


def _grid(**kw):
    machine = gpu4_node()
    ks = {n: WorkloadFactory(n) for n in ("axpy", "sum")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_grid(machine, ks, policies=POLICIES, **kw)
    return 2 * len(POLICIES), caught


def test_fault_free_grid_is_one_run_many(engine_calls):
    _, caught = _grid()
    assert engine_calls == {"run": 0, "run_many": 1}
    assert caught == []


def test_faulted_grid_runs_per_cell(engine_calls):
    from repro.faults.plan import FaultPlan, Slowdown

    ncells, _ = _grid(fault_plan=FaultPlan.of(Slowdown(devid=1, factor=2.0)))
    assert engine_calls == {"run": ncells, "run_many": 0}


# ---------------------------------------------- every path, one grid

PATHS = {
    "batch": {},
    "traced": dict(trace_dir="traces"),
}


@pytest.mark.parametrize("how", PATHS)
def test_every_path_fills_the_same_grid(how, monkeypatch, tmp_path):
    """Batched and traced sweeps run their cells differently and fill the
    grid through one loop: every cell pickles identically to the per-cell
    loop's, on the first sweep and on a repeat."""
    monkeypatch.chdir(tmp_path)
    machine = gpu4_node()
    ks = {
        "axpy": WorkloadFactory("axpy"),
        "sum": WorkloadFactory("sum"),
        "anon": lambda: make_kernel("axpy", 2048, seed=3),
    }

    def sweep():
        grid = run_grid(machine, ks, policies=POLICIES, **PATHS[how])
        assert list(grid.results) == list(ks)
        return [
            (kname, policy, pickle.dumps(result))
            for kname, row in grid.results.items()
            for policy, result in row.items()
        ]

    ref = [
        (kname, policy, pickle.dumps(run_cell(machine, factory, policy)))
        for kname, factory in ks.items()
        for policy in POLICIES
    ]
    assert sweep() == ref
    assert sweep() == ref


@pytest.mark.parametrize("entry", ["run_cell", "run_grid"])
def test_auto_cutoff_and_lambda_cells_run(entry):
    """``cutoff_ratio="auto"`` resolves against the devices at run time,
    and a lambda names no workload: both cells run, and equal each other."""
    m = gpu4_node()
    factories = (
        WorkloadFactory("axpy", seed=1),
        lambda: WorkloadFactory("axpy", seed=1)(),
    )
    kw = dict(cutoff_ratio="auto", seed=1)
    if entry == "run_cell":
        named, anon = (run_cell(m, f, "MODEL_1_AUTO", **kw) for f in factories)
    else:
        named, anon = (
            run_grid(m, {"axpy": f}, policies=("MODEL_1_AUTO",), **kw)
            .results["axpy"]["MODEL_1_AUTO"]
            for f in factories
        )
    assert named.total_time_s > 0
    assert pickle.dumps(named) == pickle.dumps(anon)
