"""Benchmark harness: workload definitions, the kernel x policy runner,
and text renderers for every figure and table in the paper's evaluation."""

from repro.bench.workloads import (
    BENCH_SCALE_ENV,
    bench_scale,
    workload,
    WorkloadFactory,
    WORKLOAD_NAMES,
)
from repro.bench.runner import (
    ALL_POLICIES,
    PolicyGrid,
    run_cell,
    run_grid,
    run_one,
)
from repro.bench.figures import (
    fig5_gpu4,
    fig6_breakdown,
    fig7_speedup,
    fig8_cpu_mic,
    fig9_full_node,
    table4_characteristics,
    table5_cutoff,
)

__all__ = [
    "ALL_POLICIES",
    "BENCH_SCALE_ENV",
    "WorkloadFactory",
    "bench_scale",
    "workload",
    "WORKLOAD_NAMES",
    "PolicyGrid",
    "run_cell",
    "run_grid",
    "run_one",
    "fig5_gpu4",
    "fig6_breakdown",
    "fig7_speedup",
    "fig8_cpu_mic",
    "fig9_full_node",
    "table4_characteristics",
    "table5_cutoff",
]
