"""Stream throughput: STREAM_REBALANCE vs static BLOCK over long streams.

The streaming runtime's perf artifact (``repro.runtime.stream``): each
streaming workload runs a long batch sequence twice under an injected
mid-stream slowdown — once with the static BLOCK split, once with the
rate-aware STREAM_REBALANCE scheduler that re-derives the split between
batches from observed EWMA rates — and the totals land in
``benchmarks/results/stream_throughput.json``.

Three properties are pinned, not just reported:

* **Rebalance wins under faults.**  A device slowed 6x mid-stream drags
  every BLOCK batch inside the window; STREAM_REBALANCE sheds its
  iterations within a few batches, so the stream finishes strictly
  earlier in virtual time.
* **Checksums are bit-identical.**  The host advance is a function of
  ``(seed, batch)`` only, the kernels are elementwise (or exact-integer
  reductions), so both schedulers must produce exactly the same outputs
  — the scheduler may move work, never change results.
* **Steady state elides bytes.**  With the persistent stream region
  holding device-resident state, batches after the first re-stage only
  the sliding-window delta: ``bytes_elided`` must be positive.

The headline workload (the online sum) runs >= 10k batches by default;
``REPRO_STREAM_BATCHES`` scales the sequence down for smoke runs (CI
uses 1000).  Everything is virtual-time deterministic, so one round is
meaningful.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.apps import (
    OnlineSumKernel,
    SlidingStencilKernel,
    StreamingBlockMatchingKernel,
)
from repro.faults.plan import FaultPlan, Slowdown
from repro.machine.presets import full_node
from repro.runtime import HompRuntime

BATCHES_ENV = "REPRO_STREAM_BATCHES"
DEFAULT_BATCHES = 10_000
WINDOW = 64
SLOW_FACTOR = 6.0


def _batches() -> int:
    raw = os.environ.get(BATCHES_ENV, "").strip()
    return max(100, int(raw)) if raw else DEFAULT_BATCHES


def _run(make_kernel, schedule, batches, plan=None):
    rt = HompRuntime(machine=full_node())
    kernel = make_kernel()
    sr = rt.stream(
        kernel,
        batches=batches,
        window=WINDOW,
        schedule=schedule,
        fault_plan=plan,
    )
    return sr, kernel


def _slowdown_plan(make_kernel, batches) -> FaultPlan:
    """A mid-stream slowdown window scaled to this workload's timeline.

    Device 0 runs ``SLOW_FACTOR``x slower from 10% to 70% of the
    fault-free BLOCK makespan — long enough that a static split keeps
    paying it batch after batch, bounded so both schedulers see healthy
    steady state on either side.
    """
    baseline, _ = _run(make_kernel, "BLOCK", batches)
    total = baseline.total_time_s
    return FaultPlan.of(
        Slowdown(
            devid=0,
            factor=SLOW_FACTOR,
            t_start=0.1 * total,
            t_end=0.7 * total,
        )
    )


def _checksum_state(kernel):
    if kernel.is_reduction:
        return None  # compared via per-batch reductions instead
    out = "u_out" if "u_out" in kernel.arrays else "sad"
    return kernel.arrays[out].copy()


def _compare(block_sr, block_state, rebal_sr, rebal_state) -> bool:
    if block_state is None:
        return block_sr.reductions == rebal_sr.reductions
    return np.array_equal(block_state, rebal_state)


def _measure(name, make_kernel, batches) -> dict:
    plan = _slowdown_plan(make_kernel, batches)
    block_sr, block_k = _run(make_kernel, "BLOCK", batches, plan)
    block_state = _checksum_state(block_k)
    rebal_sr, rebal_k = _run(make_kernel, "STREAM_REBALANCE", batches, plan)
    rebal_state = _checksum_state(rebal_k)

    checksums_equal = _compare(block_sr, block_state, rebal_sr, rebal_state)
    assert checksums_equal, f"{name}: schedulers disagree on results"
    assert rebal_sr.total_time_s < block_sr.total_time_s, (
        f"{name}: STREAM_REBALANCE ({rebal_sr.total_time_s:.6f}s) did not "
        f"beat BLOCK ({block_sr.total_time_s:.6f}s) under the slowdown"
    )
    assert rebal_sr.bytes_elided > 0, f"{name}: steady state elided nothing"
    assert block_sr.bytes_elided > 0, f"{name}: BLOCK stream elided nothing"

    def section(sr):
        return {
            "virtual_s": sr.total_time_s,
            "throughput_batches_per_s": sr.throughput_batches_per_s,
            "bytes_moved": sr.bytes_moved,
            "bytes_elided": sr.bytes_elided,
        }

    return {
        "batches": batches,
        "window": WINDOW,
        "slowdown": {"devid": 0, "factor": SLOW_FACTOR},
        "block": section(block_sr),
        "rebalance": section(rebal_sr),
        "speedup": block_sr.total_time_s / rebal_sr.total_time_s,
        "checksums_equal": checksums_equal,
    }


def test_stream_throughput(results_dir):
    batches = _batches()
    short = max(100, batches // 10)
    workloads = {
        # The headline long stream: >= 10k batches at default scale.
        "stream-sum": (lambda: OnlineSumKernel(2000, seed=1), batches),
        "stream-stencil": (lambda: SlidingStencilKernel(96, seed=1), short),
        "stream-bm": (lambda: StreamingBlockMatchingKernel(64, seed=1), short),
    }
    payload = {
        "machine": full_node().name,
        "batches": batches,
        "workloads": {
            name: _measure(name, make, n)
            for name, (make, n) in workloads.items()
        },
    }
    for name, row in payload["workloads"].items():
        assert row["speedup"] > 1.0, (name, row["speedup"])

    out = results_dir / "stream_throughput.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
