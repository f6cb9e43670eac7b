"""Grid runner: kernels x scheduling policies on a machine, with checks.

Every run verifies the numeric output against the kernel's serial
reference — a benchmark that silently computes the wrong answer is worse
than a failing one.

Independent (kernel, policy) cells can fan out over a process pool
(``run_grid(..., workers=N)``) and/or be served from the sweep cache
(:mod:`repro.bench.cache`); both paths return results bit-identical to
the serial uncached sweep, in the same deterministic order.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.bench.cache import SweepCache, get_cache, result_key
from repro.engine.core import resolve_backend
from repro.engine.trace import OffloadResult
from repro.errors import OffloadError
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.kernels.base import LoopKernel
from repro.machine.spec import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, obs_enabled
from repro.runtime.runtime import HompRuntime, _shared_kernel_specs

__all__ = [
    "ALL_POLICIES",
    "WORKERS_ENV",
    "PolicyGrid",
    "SerialFallbackWarning",
    "run_one",
    "run_cell",
    "run_grid",
    "runner_metrics",
    "verify_result",
    "engine_run_count",
]

#: Default process-pool width for ``run_grid`` (0 = serial in-process).
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: The seven Table II algorithms in the order the figures list them.
ALL_POLICIES = (
    "BLOCK",
    "SCHED_DYNAMIC",
    "SCHED_GUIDED",
    "MODEL_1_AUTO",
    "MODEL_2_AUTO",
    "SCHED_PROFILE_AUTO",
    "MODEL_PROFILE_AUTO",
)


def verify_result(
    kernel: LoopKernel,
    result: OffloadResult,
    *,
    rtol=1e-9,
    ref: "dict[str, np.ndarray] | float | None" = None,
) -> None:
    """Assert the distributed output matches the serial reference.

    ``ref`` short-circuits the (possibly expensive) serial recomputation
    when the caller already holds ``kernel.reference()`` — the batch path
    verifies many cells of one workload against one reference.  The
    mapping is never mutated, so it is safe to share.
    """
    if ref is None:
        ref = kernel.reference()
    if isinstance(ref, dict):
        reduction_ref = ref.get("__reduction__")
        for name, expected in ref.items():
            if name == "__reduction__":
                continue
            got = kernel.arrays[name]
            if not np.allclose(got, expected, rtol=rtol, atol=1e-12):
                raise OffloadError(
                    f"{kernel.name}/{result.algorithm}: array {name!r} does not "
                    "match the serial reference"
                )
        if reduction_ref is not None and result.reduction is not None:
            if not np.isclose(result.reduction, reduction_ref, rtol=1e-6):
                raise OffloadError(
                    f"{kernel.name}/{result.algorithm}: reduction mismatch"
                )
    else:
        if result.reduction is None or not np.isclose(
            result.reduction, float(ref), rtol=1e-6
        ):
            raise OffloadError(
                f"{kernel.name}/{result.algorithm}: reduction "
                f"{result.reduction} != reference {ref}"
            )


#: Offloads actually executed by this process (cache hits don't count).
_ENGINE_RUNS = 0


def engine_run_count() -> int:
    """How many offloads this process has really executed (not cache hits)."""
    return _ENGINE_RUNS


def _backend_name(executor: "str | type | None") -> str | None:
    if executor is None:
        return "virtual"
    return getattr(resolve_backend(executor), "backend_name", None)


def _cacheable_executor(executor: "str | type | None") -> bool:
    """Whether ``executor``'s results may touch the sweep cache.

    Only deterministic virtual-time results are cacheable: wall-clock
    timings differ run to run, so serving them from the sweep cache would
    be a lie.  The batch backend *is* the virtual engine (one call for
    many cells), so the two share cache keys —
    a batch sweep warms the cache for a later virtual one and vice versa.
    """
    return _backend_name(executor) in ("virtual", "batch")


def _is_batch_executor(executor: "str | type | None") -> bool:
    """Whether ``executor`` is the batch backend."""
    return _backend_name(executor) == "batch"


class SerialFallbackWarning(RuntimeWarning):
    """``run_grid`` was asked to parallelise but ran its cells serially."""


#: Process-wide counters for the grid runner (serial fallbacks, batch
#: routing); exported so sweeps can assert they took the path they meant.
_METRICS = MetricsRegistry()


def runner_metrics() -> MetricsRegistry:
    """The grid runner's process-wide metrics registry."""
    return _METRICS


def _note_serial_fallback(reason: str, ncells: int) -> None:
    """A parallel sweep quietly became serial: make it visible."""
    _METRICS.inc("run_grid_serial_fallbacks", 1.0, reason=reason)
    warnings.warn(
        f"run_grid: falling back to the serial in-process path for "
        f"{ncells} cell(s) ({reason}); pass picklable factories (e.g. "
        "WorkloadFactory) and workers>0, or executor='batch', for a "
        "parallel sweep",
        SerialFallbackWarning,
        stacklevel=3,
    )


def run_one(
    machine: MachineSpec,
    kernel: LoopKernel,
    policy: str,
    *,
    cutoff_ratio: float = 0.0,
    seed: int = 0,
    verify: bool = True,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    tracer: Tracer | None = None,
    executor: "str | type | None" = None,
) -> OffloadResult:
    """One kernel under one policy, verified.

    ``fault_plan``/``resilience`` inject deterministic faults into the run
    (see :mod:`repro.faults`); verification still applies — a resilient
    run must produce the same answer as the fault-free one.  ``tracer``
    receives the run's span stream (:mod:`repro.obs`); tracing is a pure
    side channel — the returned result is identical with or without it.
    ``executor`` selects the execution backend (registry name or class;
    None = the virtual-time simulator).
    """
    global _ENGINE_RUNS
    _ENGINE_RUNS += 1
    rt = HompRuntime(machine, seed=seed)
    result = rt.parallel_for(
        kernel, schedule=policy, cutoff_ratio=cutoff_ratio,
        fault_plan=fault_plan, resilience=resilience, tracer=tracer,
        executor=executor,
    )
    if verify:
        verify_result(kernel, result)
    return result


def _cell_key(
    machine: MachineSpec,
    factory: Callable[[], LoopKernel],
    policy: str,
    *,
    cutoff_ratio: float,
    seed: int,
    verify: bool,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> str | None:
    """Cache key for one cell, or None when the factory is anonymous.

    Only factories that expose a ``fingerprint()`` identity (e.g.
    :class:`~repro.bench.workloads.WorkloadFactory`) are cacheable; an
    arbitrary lambda could close over anything, so its cells always run.
    """
    fingerprint = getattr(factory, "fingerprint", None)
    if fingerprint is None:
        return None
    return result_key(
        machine,
        fingerprint(),
        policy,
        cutoff_ratio=cutoff_ratio,
        seed=seed,
        verify=verify,
        fault_plan=fault_plan,
        resilience=resilience,
    )


def run_cell(
    machine: MachineSpec,
    factory: Callable[[], LoopKernel],
    policy: str,
    *,
    cutoff_ratio: float = 0.0,
    seed: int = 0,
    verify: bool = True,
    cache: SweepCache | None = None,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    executor: "str | type | None" = None,
) -> OffloadResult:
    """One grid cell through the sweep cache.

    Consults the cache (keyed by the factory's fingerprint) before
    building the kernel at all — a hit skips input generation, execution
    and verification entirely.  Misses run exactly like ``run_one`` and
    populate the cache.  Non-virtual executors bypass the cache both ways
    (wall-clock results are not reproducible artifacts).
    """
    cache = get_cache() if cache is None else cache
    key = (
        _cell_key(
            machine, factory, policy,
            cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
            fault_plan=fault_plan, resilience=resilience,
        )
        if cache.enabled and _cacheable_executor(executor)
        else None
    )
    if key is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = run_one(
        machine, factory(), policy,
        cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
        fault_plan=fault_plan, resilience=resilience, executor=executor,
    )
    if key is not None:
        cache.put(key, result)
    return result


@dataclass
class PolicyGrid:
    """Results of a kernels x policies sweep."""

    machine_name: str
    policies: tuple[str, ...]
    #: results[kernel_name][policy] -> OffloadResult
    results: dict[str, dict[str, OffloadResult]] = field(default_factory=dict)

    def time_ms(self, kernel: str, policy: str) -> float:
        return self.results[kernel][policy].total_time_ms

    def best_policy(self, kernel: str) -> str:
        row = self.results[kernel]
        return min(row, key=lambda p: row[p].total_time_s)

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for kname, row in self.results.items():
            out.append([kname] + [row[p].total_time_ms for p in self.policies])
        return out


def _default_workers() -> int:
    """Pool width from ``REPRO_BENCH_WORKERS`` (0 = serial)."""
    try:
        return max(0, int(os.environ.get(WORKERS_ENV, "0")))
    except ValueError:
        return 0


def _pin_worker_threads() -> None:
    """Keep pool workers single-threaded in their BLAS/OpenMP layers.

    Under the default fork start method workers inherit the parent's pins
    (set in ``benchmarks/conftest.py`` before numpy loads); this makes the
    pin explicit for spawn-based platforms too.
    """
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, "1")


def _pool_cell(
    machine: MachineSpec,
    factory: Callable[[], LoopKernel],
    policy: str,
    cutoff_ratio: float,
    seed: int,
    verify: bool,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    executor: str | None = None,
) -> OffloadResult:
    """One cell in a pool worker (kernel built, run and verified there)."""
    return run_one(
        machine, factory(), policy,
        cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
        fault_plan=fault_plan, resilience=resilience, executor=executor,
    )


def run_grid(
    machine: MachineSpec,
    kernels: Mapping[str, Callable[[], LoopKernel]],
    *,
    policies: tuple[str, ...] = ALL_POLICIES,
    cutoff_ratio: float = 0.0,
    seed: int = 0,
    verify: bool = True,
    workers: int | None = None,
    cache: SweepCache | None = None,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    trace_dir: str | Path | None = None,
    executor: "str | type | None" = None,
) -> PolicyGrid:
    """Sweep kernel factories over policies.

    ``kernels`` maps display name -> zero-arg factory returning a *fresh*
    kernel (runs mutate output arrays, so each cell needs its own).

    ``workers`` > 0 fans independent cells out over a process pool of that
    width; ``None`` reads ``REPRO_BENCH_WORKERS`` (default 0 = serial).
    Results are assembled in the declared kernel/policy order regardless
    of completion order, and each cell is bit-identical to what the serial
    path produces (cells share nothing; every worker builds its own kernel
    from the same seed).  Cells whose factories carry a cache fingerprint
    are served from / stored into the sweep cache; anonymous lambdas (and
    unpicklable factories, in pool mode) simply run in-process.

    ``executor`` selects the execution backend for every cell (registry
    name or class; None = the virtual-time simulator).  Only virtual
    results touch the sweep cache — other backends' cells always run.

    ``trace_dir`` enables observability (:mod:`repro.obs`): every cell
    runs freshly traced (cache reads are bypassed — a cache hit has no
    spans to give — but results still populate the cache, since traced
    results are bit-identical to untraced ones) and the directory receives
    ``<kernel>.<policy>.trace.json`` (Chrome trace-event format, one pid
    per device), ``<kernel>.<policy>.jsonl`` (raw span stream) and one
    grid-wide ``metrics.prom``.  Under ``REPRO_OBS=off`` the flag is
    ignored entirely: nothing is written and caching behaves as if
    ``trace_dir`` had not been passed, so cache keys and results are
    unchanged.  Tracing forces the serial in-process path (``workers`` is
    ignored).
    """
    workers_explicit = workers is not None
    workers = _default_workers() if workers is None else max(0, int(workers))
    cache = get_cache() if cache is None else cache
    grid = PolicyGrid(machine_name=machine.name, policies=tuple(policies))
    tracing = trace_dir is not None and obs_enabled()

    # Resolve cache hits up front; only misses are (possibly) parallelised.
    pending: list[tuple[str, Callable[[], LoopKernel], str, str | None]] = []
    results: dict[tuple[str, str], OffloadResult] = {}
    for kname, factory in kernels.items():
        for policy in grid.policies:
            key = (
                _cell_key(
                    machine, factory, policy,
                    cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
                    fault_plan=fault_plan, resilience=resilience,
                )
                if cache.enabled and _cacheable_executor(executor)
                else None
            )
            hit = (
                cache.get(key) if key is not None and not tracing else None
            )
            if hit is not None:
                results[(kname, policy)] = hit
            else:
                pending.append((kname, factory, policy, key))

    if tracing:
        _run_traced_cells(
            machine, pending, results, cache, Path(trace_dir),
            cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
            fault_plan=fault_plan, resilience=resilience, executor=executor,
        )
    elif (
        _is_batch_executor(executor) and pending
        and fault_plan is None and resilience is None
    ):
        _run_batch_cells(
            machine, pending, results, cache,
            cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
            executor=executor,
        )
    elif workers > 0 and pending and not _cells_picklable(machine, pending):
        _note_serial_fallback("unpicklable cells", len(pending))
        for kname, factory, policy, key in pending:
            result = run_one(
                machine, factory(), policy,
                cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
                fault_plan=fault_plan, resilience=resilience,
                executor=executor,
            )
            if key is not None:
                cache.put(key, result)
            results[(kname, policy)] = result
    elif workers > 0 and pending:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pin_worker_threads
        ) as pool:
            futures = [
                pool.submit(
                    _pool_cell, machine, factory, policy, cutoff_ratio,
                    seed, verify, fault_plan, resilience, executor,
                )
                for _, factory, policy, _ in pending
            ]
            for (kname, _, policy, key), future in zip(pending, futures):
                result = future.result()
                if key is not None:
                    cache.put(key, result)
                results[(kname, policy)] = result
    else:
        if not workers_explicit and len(pending) > 1:
            # Serial because nobody asked for workers: an accidental
            # serial sweep looks exactly like a perf regression later.
            _note_serial_fallback("workers=0", len(pending))
        for kname, factory, policy, key in pending:
            result = run_one(
                machine, factory(), policy,
                cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
                fault_plan=fault_plan, resilience=resilience,
                executor=executor,
            )
            if key is not None:
                cache.put(key, result)
            results[(kname, policy)] = result

    for kname in kernels:
        grid.results[kname] = {p: results[(kname, p)] for p in grid.policies}
    return grid


def _run_batch_cells(
    machine: MachineSpec,
    pending: list,
    results: dict,
    cache: SweepCache,
    *,
    cutoff_ratio: float,
    seed: int,
    verify: bool,
    executor: "str | type | None",
) -> None:
    """Run pending grid cells through the batch backend.

    The whole pending list becomes one ``parallel_for_many`` call: one
    engine, one run of the event loop per cell, back to back.  Cells of
    the same factory share one kernel instance: the simulated timeline
    depends only on chunk sizes, so the (expensive) numeric execution and
    reference verification run once per workload, not once per cell
    (the sharing rule is ``_shared_kernel_specs``'s).
    """
    global _ENGINE_RUNS
    _METRICS.inc("run_grid_batch_cells", float(len(pending)))
    rt = HompRuntime(machine, seed=seed)
    refs: dict[int, "dict[str, np.ndarray] | float"] = {}
    specs = _shared_kernel_specs(
        (id(factory), factory, policy, cutoff_ratio)
        for _, factory, policy, _ in pending
    )
    batch = rt.parallel_for_many(specs, executor=executor)
    for (kname, factory, policy, key), spec, result in zip(pending, specs, batch):
        _ENGINE_RUNS += 1
        if verify and spec.execute_numerically:
            fid = id(factory)
            ref = refs.get(fid)
            if ref is None:
                ref = refs[fid] = spec.kernel.reference()
            verify_result(spec.kernel, result, ref=ref)
        if key is not None:
            cache.put(key, result)
        results[(kname, policy)] = result


def _run_traced_cells(
    machine: MachineSpec,
    pending: list,
    results: dict,
    cache: SweepCache,
    trace_dir: Path,
    *,
    cutoff_ratio: float,
    seed: int,
    verify: bool,
    fault_plan: FaultPlan | None,
    resilience: ResiliencePolicy | None,
    executor: "str | type | None" = None,
) -> None:
    """Run grid cells with tracing, exporting artifacts per cell.

    Serial by construction (the tracer is an in-process object).  One
    metrics registry spans the whole grid; each cell gets its own span
    stream.  Cache statistics are folded into the registry at the end.
    """
    from repro.obs.export import write_chrome_trace, write_jsonl, write_prom

    registry = MetricsRegistry()
    trace_dir.mkdir(parents=True, exist_ok=True)
    clock = resolve_backend(executor or "virtual").clock
    for kname, factory, policy, key in pending:
        tracer = Tracer(clock=clock, metrics=registry)
        result = run_one(
            machine, factory(), policy,
            cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
            fault_plan=fault_plan, resilience=resilience, tracer=tracer,
            executor=executor,
        )
        stem = f"{kname}.{policy}".replace("/", "_").replace(" ", "_")
        write_chrome_trace(tracer, trace_dir / f"{stem}.trace.json")
        write_jsonl(tracer, trace_dir / f"{stem}.jsonl")
        if key is not None:
            cache.put(key, result)
        results[(kname, policy)] = result
    for stat_name, value in cache.stats.to_dict().items():
        registry.set_gauge(f"bench_cache_{stat_name}", value)
    write_prom(registry, trace_dir / "metrics.prom")


def _cells_picklable(machine: MachineSpec, pending: list) -> bool:
    """Whether the pool can ship these cells (lambdas can't be pickled)."""
    try:
        pickle.dumps((machine, [factory for _, factory, _, _ in pending]))
        return True
    except Exception:
        return False
