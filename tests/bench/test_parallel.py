"""Parallel grid runner: bit-identical to serial, deterministic ordering,
graceful fallback for unpicklable factories."""

from __future__ import annotations

import os

import pytest

from repro.bench.cache import CACHE_ENV, reset_cache
from repro.bench.runner import WORKERS_ENV, _default_workers, run_grid
from repro.bench.workloads import BENCH_SCALE_ENV, WorkloadFactory
from repro.engine.trace import OffloadResult
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node

POLICIES = ("BLOCK", "SCHED_DYNAMIC", "MODEL_1_AUTO")


@pytest.fixture(autouse=True)
def tiny_uncached(monkeypatch):
    monkeypatch.setenv(BENCH_SCALE_ENV, "0.004")
    monkeypatch.setenv(CACHE_ENV, "off")
    reset_cache()
    yield
    reset_cache()


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


def test_parallel_grid_matches_serial_cell_for_cell():
    machine = gpu4_node()
    ks = {n: WorkloadFactory(n) for n in ("axpy", "sum", "stencil")}
    serial = run_grid(machine, ks, policies=POLICIES, workers=0)
    parallel = run_grid(machine, ks, policies=POLICIES, workers=4)
    assert list(serial.results) == list(parallel.results)
    for kname in ks:
        assert list(serial.results[kname]) == list(parallel.results[kname])
        for policy in POLICIES:
            _assert_results_identical(
                serial.results[kname][policy], parallel.results[kname][policy]
            )


def test_faulted_grid_matches_serial_cell_for_cell():
    from repro.faults.plan import DeviceDropout, FaultPlan, Slowdown

    machine = gpu4_node()
    ks = {n: WorkloadFactory(n) for n in ("axpy", "sum")}
    plan = FaultPlan.of(
        Slowdown(devid=1, factor=3.0),
        DeviceDropout(devid=2, t=0.0005),
        name="mixed",
    )
    serial = run_grid(machine, ks, policies=POLICIES, workers=0, fault_plan=plan)
    parallel = run_grid(machine, ks, policies=POLICIES, workers=4, fault_plan=plan)
    for kname in ks:
        for policy in POLICIES:
            a = serial.results[kname][policy]
            b = parallel.results[kname][policy]
            _assert_results_identical(a, b)
            assert a.meta["faults"] == b.meta["faults"]


def test_parallel_grid_populates_cache(monkeypatch):
    from repro.bench.runner import engine_run_count

    monkeypatch.setenv(CACHE_ENV, "mem")
    reset_cache()
    machine = gpu4_node()
    ks = {"axpy": WorkloadFactory("axpy")}
    before = engine_run_count()
    run_grid(machine, ks, policies=POLICIES, workers=2)
    # cells ran in pool workers, not this process...
    assert engine_run_count() == before
    # ...but the parent stored their results, so the repeat is free
    run_grid(machine, ks, policies=POLICIES, workers=0)
    assert engine_run_count() == before


def test_lambda_factories_fall_back_to_serial():
    machine = gpu4_node()
    grid = run_grid(
        machine,
        {"axpy": lambda: make_kernel("axpy", 400)},
        policies=("BLOCK",),
        workers=4,
    )
    assert grid.time_ms("axpy", "BLOCK") > 0


def test_workers_env_default(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert _default_workers() == 0
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _default_workers() == 3
    monkeypatch.setenv(WORKERS_ENV, "junk")
    assert _default_workers() == 0
    monkeypatch.setenv(WORKERS_ENV, "-2")
    assert _default_workers() == 0


def test_worker_thread_pins_are_exported():
    from repro.bench.runner import _pin_worker_threads

    saved = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS",)}
    try:
        os.environ.pop("OMP_NUM_THREADS", None)
        _pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


# ---------------------------------------- one miss path, one store loop

MISS_PATHS = {
    "serial": dict(workers=0),
    "pool": dict(workers=2),
    "batch": dict(executor="batch"),
    "traced": dict(workers=0, trace_dir="traces"),
}


@pytest.mark.parametrize("how", MISS_PATHS)
def test_every_miss_path_fills_the_same_grid_and_cache(how, monkeypatch, tmp_path):
    """Serial, process pool, batch backend and traced sweeps run their
    misses differently and store them through one loop: every cell
    pickles identically, cold and warm, and the cache sees the same puts."""
    import pickle

    from repro.bench.cache import SweepCache

    monkeypatch.setenv(CACHE_ENV, "mem")
    monkeypatch.chdir(tmp_path)
    machine = gpu4_node()
    # one anonymous factory: its cells run but are never stored
    ks = {"axpy": WorkloadFactory("axpy"), "sum": WorkloadFactory("sum")}
    if how != "pool":
        ks["anon"] = lambda: make_kernel("axpy", 2048, seed=3)

    def sweep(cache, **kw):
        grid = run_grid(machine, ks, policies=POLICIES, cache=cache, **kw)
        assert list(grid.results) == list(ks)
        # one round trip first: a pool worker's result arrives unpickled,
        # which re-memoizes equal strings the in-process result shares
        return [
            (kname, policy, pickle.dumps(pickle.loads(pickle.dumps(result))))
            for kname, row in grid.results.items()
            for policy, result in row.items()
        ]

    ref_cache = SweepCache()
    ref = sweep(ref_cache, workers=0)
    cache = SweepCache()
    assert sweep(cache, **MISS_PATHS[how]) == ref                  # cold
    assert cache.stats.puts == ref_cache.stats.puts == 2 * len(POLICIES)
    puts, hits = cache.stats.puts, cache.stats.hits
    assert sweep(cache, **MISS_PATHS[how]) == ref                  # warm
    if how == "traced":
        # traced sweeps bypass reads (a hit has no spans) but still store,
        # and the grid-wide metrics are written after the last store
        assert (cache.stats.puts, cache.stats.hits) == (2 * puts, hits)
        prom = (tmp_path / "traces" / "metrics.prom").read_text()
        assert f"bench_cache_puts {2 * puts}" in prom.replace(".0", "")
    else:
        assert cache.stats.puts == puts
        assert cache.stats.hits == hits + puts
