"""Cells/sec of the two ways a grid's cells can run: per cell vs one batch.

The full Fig. 5 grid (6 kernels x 7 policies on the 4-GPU node) is swept
twice — once as a per-cell ``run_cell`` loop, once through ``run_grid``,
which runs a fault-free virtual grid's cells as one ``parallel_for_many``
batch — and the measured cells/sec are printed.  Nothing is written: a
wall-clock figure is a property of the host, not of the code.

What is asserted is the work each side does, counted exactly: the Python
calls a sweep makes, under ``sys.setprofile``.  The batch must make at
most a fixed fraction of the per-cell loop's calls, so the check fails
whenever batching stops sharing work, however noisy the host.

The batch path's advantage is structural, not numerical: it is the same
event loop per cell (``run_many`` is the virtual engine's second entry
point), but one ``parallel_for_many`` call shares a kernel between the
cells of a workload, so the numerics — and the one copy of each written
array — run once per workload instead of once per cell.  Inputs and the
reference are already shared per input set on both paths
(``repro.kernels.pool``).  The results are bit-identical to the per-cell
loop (pinned by ``tests/engine/test_batch_differential.py``).

``REPRO_BENCH_SCALE`` scales the workloads as usual (unset, this module
measures at 0.05 so the per-cell baseline finishes quickly).
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.bench.runner import ALL_POLICIES, run_cell, run_grid, runner_metrics
from repro.bench.workloads import BENCH_SCALE_ENV, WorkloadFactory
from repro.machine.presets import gpu4_node

FIG5_KERNELS = ("axpy", "matvec", "matmul", "stencil", "sum", "bm")

#: Most Python calls the batched Fig. 5 grid may make, as a fraction of the
#: per-cell loop's.  Measured 0.658 at scale 0.05 (0.675 at 0.01 and 0.2).
GRID_CALL_FRACTION = 0.70
#: The same for the two-kernel subgrid of the smoke test.  Measured 0.731
#: at scale 0.05 (0.780 at 0.01, 0.731 at 0.2).
SUBGRID_CALL_FRACTION = 0.80


def _factories():
    return {name: WorkloadFactory(name, seed=0) for name in FIG5_KERNELS}


def _per_cell(machine, ks):
    """Every cell through ``run_cell``, in grid order."""
    return {
        kname: {
            policy: run_cell(machine, factory, policy)
            for policy in ALL_POLICIES
        }
        for kname, factory in ks.items()
    }


def _batch(machine, ks):
    return run_grid(machine, ks, policies=ALL_POLICIES).results


def _seconds(sweep, machine, ks):
    t0 = time.perf_counter()
    results = sweep(machine, ks)
    return time.perf_counter() - t0, results


def _python_calls(sweep, machine, ks):
    """Python function calls one sweep makes (deterministic for a tree).

    A profiler already installed (a coverage or call recorder) is put
    back afterwards, so counting never switches it off for later tests.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    installed = sys.getprofile()
    sys.setprofile(count)
    try:
        sweep(machine, ks)
    finally:
        sys.setprofile(installed)
    return calls


@pytest.fixture()
def throughput_env(monkeypatch):
    """Measurements at a recorded scale."""
    if not os.environ.get(BENCH_SCALE_ENV, "").strip():
        monkeypatch.setenv(BENCH_SCALE_ENV, "0.05")
    yield


def test_batch_throughput(throughput_env):
    machine = gpu4_node()
    ks = _factories()
    # Warm the shared input pool so neither side pays generation costs.
    for factory in ks.values():
        factory()

    ncells = len(FIG5_KERNELS) * len(ALL_POLICIES)
    serial_s, serial = _seconds(_per_cell, machine, ks)
    batched_before = runner_metrics().counter_value("run_grid_batch_cells")
    batch_s, batch = _seconds(_batch, machine, ks)
    # Every cell of the grid took the batch path.
    assert runner_metrics().counter_value("run_grid_batch_cells") == (
        batched_before + ncells
    )

    # The batch must agree with the per-cell loop cell by cell.
    for kname in serial:
        for policy in ALL_POLICIES:
            assert (
                serial[kname][policy].total_time_s
                == batch[kname][policy].total_time_s
            ), (kname, policy)

    report = {
        "grid": "fig5 (gpu4_node, 6 kernels x 7 policies)",
        "scale": os.environ[BENCH_SCALE_ENV],
        "cells": ncells,
        "cpus": os.cpu_count(),
        "seconds": {"per_cell": round(serial_s, 4), "batch": round(batch_s, 4)},
        "cells_per_sec": {
            "per_cell": round(ncells / serial_s, 2),
            "batch": round(ncells / batch_s, 2),
        },
        "speedup": {"batch_vs_per_cell": round(serial_s / batch_s, 1)},
    }
    print("\n" + json.dumps(report, indent=2))

    # The floor: batching shares work, so it makes far fewer calls.
    serial_calls = _python_calls(_per_cell, machine, ks)
    batch_calls = _python_calls(_batch, machine, ks)
    print(f"python calls: per_cell {serial_calls}, batch {batch_calls}")
    assert batch_calls <= GRID_CALL_FRACTION * serial_calls, (
        serial_calls, batch_calls,
    )


def test_batch_floor_smoke(throughput_env):
    """Cheap floor for CI: the batch does less work than the per-cell
    loop on a two-kernel subgrid.  The wall times are printed only."""
    machine = gpu4_node()
    ks = {name: WorkloadFactory(name, seed=0) for name in ("axpy", "sum")}
    for factory in ks.values():
        factory()

    serial_s = _seconds(_per_cell, machine, ks)[0]
    batch_s = _seconds(_batch, machine, ks)[0]
    serial_calls = _python_calls(_per_cell, machine, ks)
    batch_calls = _python_calls(_batch, machine, ks)
    print(f"\nseconds: per_cell {serial_s:.4f}, batch {batch_s:.4f}; "
          f"python calls: per_cell {serial_calls}, batch {batch_calls}")
    assert batch_calls <= SUBGRID_CALL_FRACTION * serial_calls, (
        serial_calls, batch_calls,
    )
