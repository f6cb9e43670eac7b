"""Benchmark harness: workload definitions, the kernel x policy runner,
and text renderers for every figure and table in the paper's evaluation."""

from repro.bench.workloads import (
    BENCH_SCALE_ENV,
    bench_scale,
    workload,
    WorkloadFactory,
    WORKLOAD_NAMES,
)
from repro.bench.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    CacheStats,
    SweepCache,
    cache_mode,
    get_cache,
    reset_cache,
    result_key,
)
from repro.bench.runner import (
    ALL_POLICIES,
    PolicyGrid,
    engine_run_count,
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
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "CacheStats",
    "SweepCache",
    "WorkloadFactory",
    "bench_scale",
    "cache_mode",
    "engine_run_count",
    "get_cache",
    "reset_cache",
    "result_key",
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
