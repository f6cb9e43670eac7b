"""The ledger's vocabulary, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place that names the
workloads and every metric with its unit, direction and bound; this module
loads it and adds only what the contract's six keys cannot hold: the
default seed, the lap policy, which metrics repeat bit for bit, and the
end-to-end metric each per-layer metric should move (``--compare`` prints
it beside the row).  Op counts per lap are constants of the workload
classes in ``workloads.py``; the child reports them and the ledger header
records them.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Seconds one driver run measures.
RUN_SECONDS = CONTRACT["run_seconds"]
WORKLOADS = tuple(w["name"] for w in CONTRACT["workloads"])
#: End-to-end metrics (tracing off): dicts of name, unit, better, bound.
END_TO_END = CONTRACT["end_to_end"]
E2E_UNITS = {m["name"]: m["unit"] for m in END_TO_END}
#: Per-layer metrics (traced pass): name -> unit / better.
LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
LAYER_BETTER = {m["name"]: m["better"] for m in CONTRACT["per_layer"]}

DEFAULT_SEED = 11
#: Seeds with a committed simulation digest under ``expected/``.
EXPECTED_SEEDS = (11, 12)
#: Fresh processes one end-to-end run is folded from (each sets up once).
PROCESSES_PER_RUN = 3


def timed_laps(seconds: float) -> int:
    """Timed laps per process of an end-to-end run of ``seconds``.

    A lap is sized to about a second (a constant op list, never
    time-adaptive) and each of the run's processes spends about one lap
    on set-up and one on its warm-up lap, so the count follows from
    ``--seconds`` alone: the same on parent and change, however fast
    either is.  10 s -> 3 processes x (1 warm-up + 2 timed laps).
    """
    return max(1, round(seconds / PROCESSES_PER_RUN) - 1)


def traced_laps(seconds: float) -> tuple[int, int]:
    """(plain, traced) laps of the one-process traced pass: the lap count
    of an end-to-end run, a third of it with tracing still off."""
    total = PROCESSES_PER_RUN * timed_laps(seconds)
    plain = max(1, total // 3)
    return plain, max(1, total - plain)


#: Workloads whose worker threads race: how often a layer is called per
#: job there follows how jobs happened to batch, so only counts that are a
#: pure function of the op list repeat exactly.
THREADED = ("service_solo", "service_shared")

#: Per-layer metrics that must repeat bit for bit for a given seed.
EXACT = frozenset(
    name for name in LAYER_UNITS
    if name.endswith("calls_per_op") or name in (
        "engine.chunks_per_op", "sim_time_ms", "sim.digest_match",
        "ir.fused_share", "memory.elided_share", "engine.batch_delegated_share",
        "service.rejected", "service.lost", "service.duplicated",
    )
)

#: What each per-layer metric should move: "e2e metric @ workload".  Every
#: time metric also moves op_p50_ms on the same workload.
MOVES = {
    "lang.parse_us": "ops_per_s@program_regions",
    "ir.lower_us": "ops_per_s@program_regions",
    "ir.verify_us": "ops_per_s@program_regions",
    "ir.verify_calls_per_op": "ops_per_s@program_regions",
    "ir.passes_us": "ops_per_s@program_regions",
    "ir.fused_share": "sim_time_ms@program_regions",
    "runtime.parallel_for_self_us": "ops_per_s@oneshot_mix, @service_solo",
    "runtime.run_program_self_us": "ops_per_s@program_regions",
    "runtime.offload_info_us": "ops_per_s@oneshot_mix",
    "runtime.region_enter_us": "ops_per_s@program_regions",
    "runtime.region_exit_us": "ops_per_s@program_regions",
    "runtime.halo_plan_us": "ops_per_s@program_regions",
    "runtime.stream_self_us_per_batch": "ops_per_s@stream_steady",
    "runtime.many_self_us_per_cell": "ops_per_s@service_shared",
    "machine.subset_us": "ops_per_s@oneshot_mix",
    "machine.to_dict_calls_per_op": "ops_per_s@stream_steady, @service_solo; 0 on oneshot_mix",
    "machine.to_dict_us_per_op": "ops_per_s@stream_steady, @service_solo; 0 on oneshot_mix",
    "sched.make_us": "ops_per_s@oneshot_mix",
    "sched.select_us": "ops_per_s@program_regions",
    "sched.start_us": "ops_per_s@oneshot_mix",
    "sched.cutoff_us": "ops_per_s@oneshot_mix",
    "sched.next_us": "ops_per_s@chunk_heavy",
    "sched.next_calls_per_op": "ops_per_s@chunk_heavy",
    "sched.observe_us": "ops_per_s@chunk_heavy, @stream_steady",
    "model.solve_us": "ops_per_s@oneshot_mix",
    "engine.make_backend_us": "ops_per_s@oneshot_mix",
    "engine.configured_us": "ops_per_s@stream_steady, @service_solo",
    "engine.run_ctx_init_us": "ops_per_s@oneshot_mix, @stream_steady, @service_solo; flat on chunk_heavy",
    "engine.loop_self_us_per_chunk": "ops_per_s@chunk_heavy",
    "engine.begin_chunk_us": "ops_per_s@chunk_heavy",
    "engine.chunk_bytes_us": "ops_per_s@chunk_heavy",
    "engine.account_chunk_us": "ops_per_s@chunk_heavy",
    "engine.commit_chunk_us": "ops_per_s@chunk_heavy",
    "engine.finalize_us": "ops_per_s@oneshot_mix",
    "engine.chunks_per_op": "exact; explains chunk_heavy vs oneshot_mix",
    "engine.chunks_per_s": "ops_per_s@chunk_heavy",
    "engine.batch_us_per_cell": "ops_per_s@batch_cells, @service_shared",
    "engine.batch_delegated_share": "ops_per_s@batch_cells (must stay 0 there)",
    "memory.charge_chunk_us": "ops_per_s@chunk_heavy, @stream_steady",
    "memory.charge_calls_per_op": "ops_per_s@chunk_heavy, @stream_steady",
    "memory.retain_us": "ops_per_s@program_regions, @stream_steady",
    "memory.release_us": "ops_per_s@program_regions, @stream_steady",
    "memory.invalidate_us": "ops_per_s@stream_steady",
    "memory.plan_derive_us": "ops_per_s@program_regions",
    "memory.elided_share": "sim_time_ms@program_regions, @stream_steady",
    "kernels.make_us": "ops_per_s@grid_fig5, @service_solo; setup_s elsewhere",
    "kernels.chunk_cost_us": "ops_per_s@chunk_heavy",
    "kernels.execute_chunk_us": "ops_per_s@grid_fig5",
    "kernels.numerics_share": "ops_per_s@grid_fig5",
    "kernels.reference_us": "ops_per_s@grid_fig5, @service_shared",
    "bench.verify_us": "ops_per_s@grid_fig5, @service_solo",
    "bench.run_cell_self_us": "ops_per_s@grid_fig5",
    "service.submit_us": "ops_per_s@service_solo",
    "service.admit_us": "ops_per_s@service_solo",
    "service.wfq_us": "ops_per_s@service_solo",
    "service.pop_matching_us": "ops_per_s@service_shared",
    "service.pool_acquire_wait_ms": "op_p50_ms@service_solo",
    "service.plan_group_us": "ops_per_s@service_shared",
    "service.queue_wait_p50_ms": "op_p50_ms@service_*",
    "service.run_p50_ms": "op_p50_ms@service_*",
    "service.overhead_us_per_job": "ops_per_s@service_solo",
    "service.coalesce_ratio": "ops_per_s@service_shared; 0 on service_solo",
    "service.mean_batch_size": "ops_per_s@service_shared; 1 on service_solo",
    "service.engine_runs_per_job": "ops_per_s@service_shared; 1 on service_solo",
    "service.rejected": "ops_failed",
    "service.lost": "ops_failed",
    "service.duplicated": "ops_failed",
    "load.ops_per_s_median_lap": "ops per lap / median lap wall: ops_per_s without the best-lap filter",
    "load.op_p50_ms_pooled": "median latency pooled over all laps: op_p50_ms without the best-lap filter",
    "load.op_p95_ms": "ungated tail",
    "load.op_p99_ms": "ungated tail",
    "load.samples": "sample count behind load.op_p95/p99",
    "sim_time_ms": "moves only with scheduling/placement; a host-speed PR leaves it bit-equal",
    "sim.digest_match": "must be 1 for any simulator-only speed-up",
    "trace.overhead_share": "(traced - untraced median lap) / untraced",
}
