"""Differential tests: the virtual engine's two entry points.

``run_many`` (the batch entry point; ``"batch"`` is an alias of
``"virtual"``) must return, per cell, exactly the bytes ``run`` produces
for it.  That is pinned here three ways: the entry point x (scheduler,
kernel) invariant grid from ``test_differential.py``, whole fig5/fig9
grids through ``run_grid`` (one batch) against a per-cell ``run_cell``
loop, and faulted/traced cells through both entry points.
"""

import pickle

import pytest

from repro.bench.runner import ALL_POLICIES, run_cell, run_grid
from repro.bench.workloads import WorkloadFactory
from repro.engine.batch import BatchRequest
from repro.engine.core import make_backend
from repro.faults.plan import FaultPlan, Slowdown, TransferError
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.obs.tracer import Tracer
from repro.sched.registry import make_scheduler

from tests.engine.test_differential import check_invariants

BACKENDS = ("virtual", "batch")
GRID = [
    ("BLOCK", "axpy"),
    ("BLOCK", "sum"),
    ("MODEL_1_AUTO", "axpy"),
    ("MODEL_2_AUTO", "matvec"),
    ("MODEL_PROFILE_AUTO", "sum"),
    ("SCHED_PROFILE_AUTO", "axpy"),
    ("SCHED_DYNAMIC", "axpy"),   # timing-driven: exercises the fallback
    ("SCHED_GUIDED", "sum"),
]
N = 60_000
SIZES = {"matvec": 2_000}


def run(backend, policy, kname, *, machine=None, **opts):
    """One cell: through ``run`` for ``"virtual"``, through a one-request
    ``run_many`` for ``"batch"``."""
    machine = gpu4_node() if machine is None else machine
    n = SIZES.get(kname, N)
    eng = make_backend(backend, machine, seed=0, record_events=True, **opts)
    kernel = make_kernel(kname, n, seed=7)
    if backend == "batch":
        (result,) = eng.run_many([BatchRequest(kernel, make_scheduler(policy))])
    else:
        result = eng.run(kernel, make_scheduler(policy))
    return kernel, result, eng


@pytest.mark.parametrize("policy,kname", GRID, ids=[f"{p}-{k}" for p, k in GRID])
@pytest.mark.parametrize("backend", BACKENDS)
def test_invariants_hold_per_backend(backend, policy, kname):
    kernel, result, eng = run(backend, policy, kname)
    check_invariants(kernel, result, eng)


@pytest.mark.parametrize("policy,kname", GRID, ids=[f"{p}-{k}" for p, k in GRID])
def test_batch_bit_identical_to_virtual(policy, kname):
    _, r_v, e_v = run("virtual", policy, kname)
    _, r_b, e_b = run("batch", policy, kname)
    assert pickle.dumps(r_v) == pickle.dumps(r_b)
    assert e_b.timeline.events == e_v.timeline.events


# ------------------------------------------------- whole-figure grids


@pytest.fixture()
def tiny_grid_env(monkeypatch):
    """Small workloads: every cell runs on both paths."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")


#: The figure kernels (fig5/fig9 sweep all six over the seven policies).
FIG_KERNELS = ("axpy", "matvec", "matmul", "stencil", "sum", "bm")


@pytest.mark.parametrize(
    "machine_factory", [gpu4_node, full_node], ids=["fig5-gpu4", "fig9-full"]
)
def test_full_figure_grid_bit_identical(machine_factory, tiny_grid_env):
    machine = machine_factory()
    ks = {name: WorkloadFactory(name, seed=0) for name in FIG_KERNELS}
    per_cell = {
        (kname, policy): run_cell(machine, factory, policy)
        for kname, factory in ks.items() for policy in ALL_POLICIES
    }
    g_b = run_grid(machine, ks, policies=ALL_POLICIES)
    for kname in ks:
        for policy in ALL_POLICIES:
            assert pickle.dumps(per_cell[kname, policy]) == pickle.dumps(
                g_b.results[kname][policy]
            ), f"{machine.name}/{kname}/{policy} diverged"


# ------------------------------------------------- per-cell pins


def test_faulted_cell_matches_virtual():
    # A faulted cell comes back byte-for-byte equal through either entry
    # point.
    plan = FaultPlan.of(
        Slowdown(0, 2.0), TransferError(1, 0.3, seed=11),
    )
    res = ResiliencePolicy(retry=RetryPolicy(max_retries=3, backoff_s=1e-5))
    results = {}
    for backend in BACKENDS:
        _, results[backend], _ = run(
            backend, "SCHED_DYNAMIC", "sum", fault_plan=plan, resilience=res,
        )
    assert pickle.dumps(results["virtual"]) == pickle.dumps(results["batch"])
    assert "faults" in results["batch"].meta


def test_traced_cell_matches_virtual_and_emits_spans():
    # A traced cell through either entry point — results identical, the
    # same spans on both.
    spans = {}
    results = {}
    for backend in BACKENDS:
        tracer = Tracer()
        _, results[backend], _ = run(
            backend, "MODEL_2_AUTO", "axpy", tracer=tracer,
        )
        spans[backend] = tracer.spans
    assert pickle.dumps(results["virtual"]) == pickle.dumps(results["batch"])
    assert spans["batch"] == spans["virtual"] != []
