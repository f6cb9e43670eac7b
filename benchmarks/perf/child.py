"""One workload in one fresh process: set up, lap, trace, report.

``run.py`` starts this file as a subprocess (environment pinned there)
and reads the single JSON object it prints last: raw lap walls, per-op
latency samples, set-up time, peak RSS and the lap's simulated makespan
(``run.py`` folds several such processes into the end-to-end metrics)
and, traced, the per-layer metrics.  A process does::

    imports -> build -> 1 warm-up lap            = setup_s (from --t0)
    --laps timed laps, tracing off               -> end-to-end metrics
    [--traced-laps] install wrappers, lap again  -> per-layer metrics

Lap counts are arguments, never decided from the clock.  Every lap
executes the same seeded op list, so every lap's simulation digest must
be equal: to each other and, for the seeds that have one, to the
committed ``expected/<workload>.json``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from trace import Tracer  # noqa: E402  (this directory's trace.py)
from workloads import WORKLOADS, Lap, median_ms  # noqa: E402

perf = time.perf_counter

#: Call counts that are a pure function of the op list even when worker
#: threads race (what --selfcheck compares on the service workloads).
SERVICE_EXACT_KEYS = (
    "service.submit", "service.admit", "service.release",
    "service.wfq_push", "service.group_key",
)


def digest(lap: Lap) -> str:
    return hashlib.blake2b(repr(lap.canon).encode(), digest_size=16).hexdigest()


def expected_digest(name: str, seed: int, scale: float) -> str | None:
    path = HERE / "expected" / f"{name}.json"
    if scale != 1.0 or not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def run_laps(wl, n: int) -> list[Lap]:
    """``n`` laps of the workload's fixed op list, a collection after each."""
    laps: list[Lap] = []
    for _ in range(n):
        laps.append(wl.lap())
        gc.collect()
    return laps


def layer_metrics(tot, traced: list[Lap], plain: list[Lap], direct_s: float,
                  digest_ok: bool) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from the wrappers' totals
    (traced laps) and the plain laps' results and samples."""
    zero = [0, 0.0, 0.0, 0]
    ops = sum(l.ops for l in traced)
    chunks = sum(l.chunks for l in traced)
    traced_wall = sum(l.wall_s for l in traced)

    def row(key):
        return tot.get(key, zero)

    def self_us(*keys, per=None):
        """Mean self time per call (of the first key unless ``per``)."""
        calls = row(keys[0])[0] if per is None else per
        total = sum(row(k)[2] for k in keys)
        return 1e6 * total / calls if calls else 0.0

    def per_op(key):
        return row(key)[0] / ops if ops else 0.0

    lap = plain[0]  # deterministic per-lap quantities: any lap will do
    plain_wall = statistics.median(l.wall_s for l in plain)
    samples = sorted(s for l in plain for s in l.samples)
    extra = {k: sum(l.extra.get(k, 0) for l in plain) for k in (
        "rejected", "lost", "duplicated", "engine_runs", "coalesced",
        "batch_size_sum", "completed",
    )}
    done = extra["completed"]
    moved_elided = lap.bytes_moved + lap.bytes_elided
    units_many = row("engine.run_many")[3]
    units_pfm = row("runtime.parallel_for_many")[3]
    info_calls = row("runtime.info_build")[0] + row("runtime.info_from_ir")[0]
    lower_calls = row("ir.from_directive")[0] + row("ir.from_directives")[0]
    cell_calls = max(row("bench.run_cell")[0], row("bench.run_one")[0])
    is_service = done > 0

    m = {
        "lang.parse_us": self_us("lang.parse"),
        "ir.lower_us": self_us("ir.from_directive", "ir.from_directives", per=lower_calls),
        "ir.verify_us": self_us("ir.verify"),
        "ir.verify_calls_per_op": per_op("ir.verify"),
        "ir.passes_us": self_us("ir.passes"),
        "ir.fused_share": lap.fused / lap.offloads if lap.offloads else 0.0,
        "runtime.parallel_for_self_us": self_us("runtime.parallel_for"),
        "runtime.run_program_self_us": self_us("runtime.run_program"),
        "runtime.offload_info_us": self_us("runtime.info_build", "runtime.info_from_ir", per=info_calls),
        "runtime.region_enter_us": self_us("runtime.region_enter"),
        "runtime.region_exit_us": self_us("runtime.region_exit"),
        "runtime.halo_plan_us": self_us("runtime.halo_plan"),
        "runtime.stream_self_us_per_batch": self_us("runtime.run_stream", per=ops) if row("runtime.run_stream")[0] else 0.0,
        "runtime.many_self_us_per_cell": self_us("runtime.parallel_for_many", per=units_pfm),
        "machine.subset_us": self_us("machine.subset"),
        "machine.to_dict_calls_per_op": per_op("machine.to_dict"),
        "machine.to_dict_us_per_op": 1e6 * row("machine.to_dict")[1] / ops if ops else 0.0,
        "sched.make_us": self_us("sched.make"),
        "sched.select_us": self_us("sched.select"),
        "sched.start_us": self_us("sched.start"),
        "sched.cutoff_us": self_us("sched.cutoff"),
        "sched.next_us": self_us("sched.next"),
        "sched.next_calls_per_op": per_op("sched.next"),
        "sched.observe_us": self_us("sched.observe"),
        "model.solve_us": self_us("model.solve"),
        "engine.make_backend_us": self_us("engine.make_backend"),
        "engine.configured_us": self_us("engine.configured"),
        "engine.run_ctx_init_us": self_us("engine.run_ctx_init"),
        "engine.loop_self_us_per_chunk": self_us("engine.run", per=chunks) if row("engine.run")[0] else 0.0,
        "engine.begin_chunk_us": self_us("engine.begin_chunk"),
        "engine.chunk_bytes_us": self_us("engine.chunk_bytes"),
        "engine.account_chunk_us": self_us("engine.account_chunk"),
        "engine.commit_chunk_us": self_us("engine.commit_chunk"),
        "engine.finalize_us": self_us("engine.finalize"),
        "engine.chunks_per_op": lap.chunks / lap.ops,
        "engine.chunks_per_s": lap.chunks / plain_wall,
        "engine.batch_us_per_cell": 1e6 * row("engine.run_many")[1] / units_many if units_many else 0.0,
        "engine.batch_delegated_share": row("engine.run@engine.run_many")[0] / units_many if units_many else 0.0,
        "memory.charge_chunk_us": self_us("memory.charge_chunk"),
        "memory.charge_calls_per_op": per_op("memory.charge_chunk"),
        "memory.retain_us": self_us("memory.retain"),
        "memory.release_us": self_us("memory.release"),
        "memory.invalidate_us": self_us("memory.invalidate"),
        "memory.plan_derive_us": self_us("memory.plan_derive"),
        "memory.elided_share": lap.bytes_elided / moved_elided if moved_elided else 0.0,
        "kernels.make_us": self_us("kernels.make"),
        "kernels.chunk_cost_us": self_us("kernels.chunk_cost"),
        "kernels.execute_chunk_us": self_us("kernels.execute_chunk"),
        "kernels.numerics_share": row("kernels.execute_chunk")[1] / traced_wall,
        "kernels.reference_us": self_us("kernels.reference"),
        "bench.verify_us": self_us("bench.verify"),
        "bench.run_cell_self_us": self_us("bench.run_cell", "bench.run_one", per=cell_calls),
        "service.submit_us": self_us("service.submit"),
        "service.admit_us": self_us("service.admit", "service.release"),
        "service.wfq_us": self_us("service.wfq_push", "service.wfq_pop"),
        "service.pop_matching_us": self_us("service.pop_matching"),
        "service.pool_acquire_wait_ms": self_us("service.pool_acquire") / 1e3,
        "service.plan_group_us": self_us("service.plan_group", "service.group_key", per=ops) if is_service else 0.0,
        "service.queue_wait_p50_ms": median_ms([v for l in plain for v in l.series.get("queue_wait_s", ())]),
        "service.run_p50_ms": median_ms([v for l in plain for v in l.series.get("run_s", ())]),
        "service.overhead_us_per_job": 1e6 * (plain_wall / lap.ops - direct_s) if is_service else 0.0,
        "service.coalesce_ratio": extra["coalesced"] / done if done else 0.0,
        "service.mean_batch_size": extra["batch_size_sum"] / done if done else 0.0,
        "service.engine_runs_per_job": extra["engine_runs"] / done if done else 0.0,
        "service.rejected": extra["rejected"],
        "service.lost": extra["lost"],
        "service.duplicated": extra["duplicated"],
        "load.ops_per_s_median_lap": lap.ops / plain_wall,
        "load.op_p50_ms_pooled": median_ms(samples),
        "load.op_p95_ms": 1e3 * percentile(samples, 0.95),
        "load.op_p99_ms": 1e3 * percentile(samples, 0.99),
        "load.samples": len(samples),
        "sim_time_ms": 1e3 * lap.sim_s,
        "sim.digest_match": 1 if digest_ok else 0,
        "trace.overhead_share": (
            statistics.median(l.wall_s for l in traced) - plain_wall
        ) / plain_wall,
    }
    assert list(m) == list(spec.LAYER_UNITS), "metric names differ from BENCHMARK.json"
    return m


def selfcheck(wl, tracer: Tracer) -> list[str]:
    """Two traced laps between two plain ones: counts repeat, the
    wrappers come off completely, and results are pickle-equal."""
    problems = []
    before = wl.lap()
    counts = []
    for _ in range(2):
        tracer.install()
        patched = list(tracer.installed)
        tracer.reset()
        wl.lap()
        tracer.remove()
        tot = tracer.totals()
        keys = SERVICE_EXACT_KEYS if wl.name in spec.THREADED else sorted(tot)
        counts.append({k: (tot[k][0], tot[k][3]) for k in keys if k in tot})
        for owner, name, original in patched:
            if vars(owner)[name] is not original:
                problems.append(f"{owner.__name__}.{name} still wrapped")
    if counts[0] != counts[1]:
        diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
        problems.append(f"call counts differ between traced laps: {sorted(diff)}")
    if not counts[0]:
        problems.append("no traced callable was reached")
    after = wl.lap()
    # one pickle per result: pickling the list would also encode which
    # results share sub-objects, and that follows how jobs were batched
    if [pickle.dumps(r) for r in before.results] != [
        pickle.dumps(r) for r in after.results
    ]:
        problems.append("results after a traced pass are not pickle-equal")
    if digest(before) != digest(after):
        problems.append("simulation digest changed across the traced pass")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--laps", type=int, default=spec.timed_laps(spec.RUN_SECONDS),
                    help="timed laps with tracing off")
    ap.add_argument("--traced-laps", type=int, default=0,
                    help="further laps with the wrappers installed")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    wl = WORKLOADS[args.workload](args.seed, args.scale, keep=args.selfcheck)
    wl.build()
    try:
        warm = wl.lap()
        gc.collect()
        setup_s = time.monotonic() - t0
        out: dict = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s}
        if args.selfcheck:
            out["problems"] = selfcheck(wl, Tracer())
            print(json.dumps(out))
            return 0

        plain = run_laps(wl, args.laps)
        laps = [warm, *plain]

        traced: list[Lap] = []
        if args.traced_laps:
            direct_s = wl.direct_seconds()
            tracer = Tracer()
            tracer.install()
            try:
                tracer.record_spans = args.trace_out is not None
                traced = run_laps(wl, args.traced_laps)
            finally:
                tracer.remove()
            laps += traced
    finally:
        wl.close()

    digests = {digest(l) for l in laps}
    want = expected_digest(wl.name, args.seed, args.scale)
    digest_ok = len(digests) == 1 and want in (None, *digests)
    failures = [f for l in laps for f in l.failures]
    if len(digests) != 1:
        failures.append("laps of one seeded op list simulated differently")
    elif not digest_ok:
        failures.append(f"simulation digest {digests} != expected {want}")
    out.update(
        digest=sorted(digests)[0],
        attempted=sum(l.ops for l in laps),
        failed=sum(l.failed for l in laps),
        correct=not failures,
        failures=failures[:5],
        ops_per_lap=warm.ops,
        sim_time_ms=1e3 * warm.sim_s,
        lap_wall_s=[l.wall_s for l in plain],
        lap_samples_s=[l.samples for l in plain],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if traced:
        out["layers"] = layer_metrics(
            tracer.totals(), traced, plain, direct_s, digest_ok
        )
        if args.trace_out:
            starts = [(t, i, j) for i, l in enumerate(traced)
                      for j, t in enumerate(l.starts)]
            times = [s[0] for s in starts]

            def op_of(t):
                k = bisect.bisect_right(times, t) - 1
                return list(starts[k][1:]) if k >= 0 else -1

            tracer.write_spans(args.trace_out, op_of if starts else lambda t: -1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
