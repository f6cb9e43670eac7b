"""Cells/sec of the sweep paths: serial vs process pool vs batch backend.

The perf-trajectory artifact for the batch backend
(``repro.engine.batch``): the full Fig. 5 grid (6 kernels x 7 policies on
the 4-GPU node) is swept three ways — serial in-process, process pool,
and the batch backend — and the measured cells/sec land in
``benchmarks/results/batch_throughput.json``.

The batch path's advantage is structural, not numerical: it is the same
event loop per cell (``BatchEngine`` *is* the virtual engine), but one
``parallel_for_many`` call shares a kernel between the cells of a
workload, so the numerics run once per workload instead of once per
cell, and there is no process-pool pickle/fork overhead.  The results
are bit-identical to the serial sweep (pinned by
``tests/engine/test_batch_differential.py``).  That is also all it
amortizes: the serial and pool paths no longer pay per-cell input copies
or references either (``repro.kernels.pool`` hands every cell the same
read-only inputs and one reference per input set), so what is left
between them and the batch path is numeric execution — and the one copy
of each written array — once per *workload* instead of once per *cell*.

``REPRO_BENCH_SCALE`` scales the workloads as usual (unset, this module
measures at 0.05 so the serial baseline finishes quickly); the resolved
scale is recorded in the artifact, so numbers are only comparable at
equal scale (and on comparable hardware — ``cpus`` is recorded too).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench.cache import SweepCache
from repro.bench.runner import ALL_POLICIES, run_grid
from repro.bench.workloads import BENCH_SCALE_ENV, WorkloadFactory
from repro.machine.presets import gpu4_node

FIG5_KERNELS = ("axpy", "matvec", "matmul", "stencil", "sum", "bm")
POOL_WORKERS = 2


def _factories():
    return {name: WorkloadFactory(name, seed=0) for name in FIG5_KERNELS}


def _sweep_seconds(machine, *, workers, executor):
    """Wall seconds for one full uncached fig5 sweep."""
    cache = SweepCache()  # fresh and memory-only under REPRO_BENCH_CACHE=off
    t0 = time.perf_counter()
    grid = run_grid(
        machine, _factories(), policies=ALL_POLICIES,
        workers=workers, cache=cache, executor=executor,
    )
    elapsed = time.perf_counter() - t0
    ncells = len(grid.results) * len(grid.policies)
    return elapsed, ncells, grid


@pytest.fixture()
def throughput_env(monkeypatch):
    """Uncached measurements at a recorded scale."""
    monkeypatch.setenv("REPRO_BENCH_CACHE", "off")
    if not os.environ.get(BENCH_SCALE_ENV, "").strip():
        monkeypatch.setenv(BENCH_SCALE_ENV, "0.05")
    yield


def test_batch_throughput(throughput_env, results_dir):
    machine = gpu4_node()
    # Warm the shared input pool so no mode pays generation costs.
    for factory in _factories().values():
        factory()

    serial_s, ncells, serial_grid = _sweep_seconds(
        machine, workers=0, executor=None
    )
    pool_s, _, _ = _sweep_seconds(machine, workers=POOL_WORKERS, executor=None)
    batch_s, _, batch_grid = _sweep_seconds(machine, workers=0, executor="batch")

    # The batch backend must agree with the serial sweep cell by cell.
    for kname in serial_grid.results:
        for policy in serial_grid.policies:
            assert (
                serial_grid.results[kname][policy].total_time_s
                == batch_grid.results[kname][policy].total_time_s
            ), (kname, policy)

    report = {
        "grid": "fig5 (gpu4_node, 6 kernels x 7 policies)",
        "scale": os.environ[BENCH_SCALE_ENV],
        "cells": ncells,
        "cpus": os.cpu_count(),
        "pool_workers": POOL_WORKERS,
        "seconds": {
            "serial": round(serial_s, 4),
            "pool": round(pool_s, 4),
            "batch": round(batch_s, 4),
        },
        "cells_per_sec": {
            "serial": round(ncells / serial_s, 2),
            "pool": round(ncells / pool_s, 2),
            "batch": round(ncells / batch_s, 2),
        },
        "speedup": {
            "batch_vs_serial": round(serial_s / batch_s, 1),
            "batch_vs_pool": round(pool_s / batch_s, 1),
        },
    }
    (results_dir / "batch_throughput.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print("\n" + json.dumps(report, indent=2))

    # CI floor: the batch path must never lose to the serial one.
    assert batch_s < serial_s, report


def test_batch_floor_smoke(throughput_env):
    """Cheap floor for CI: batch beats serial on a two-kernel subgrid.

    Each side is the best of 3 alternating repetitions: a single-shot
    wall-clock comparison read between 0.93 and 1.29 serial/batch on an
    unchanged tree, so one host stall could decide it.
    """
    machine = gpu4_node()
    ks = {name: WorkloadFactory(name, seed=0) for name in ("axpy", "sum")}
    for factory in ks.values():
        factory()

    def timed(**kw) -> float:
        t0 = time.perf_counter()
        run_grid(machine, ks, policies=ALL_POLICIES, workers=0,
                 cache=SweepCache(), **kw)
        return time.perf_counter() - t0

    serial_s = batch_s = float("inf")
    for _ in range(3):
        serial_s = min(serial_s, timed())
        batch_s = min(batch_s, timed(executor="batch"))
    assert batch_s < serial_s, (serial_s, batch_s)
