"""Grid runner: kernels x scheduling policies on a machine, with checks.

Every run verifies the numeric output against the kernel's serial
reference — a benchmark that silently computes the wrong answer is worse
than a failing one.

Every cell of a grid is computed: a fault-free, untraced grid runs as
one ``parallel_for_many`` batch, every other grid runs per cell.  Either
way each result is bit-identical to the per-cell sweep's, in the same
deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.engine.trace import OffloadResult
from repro.errors import OffloadError
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.kernels.base import LoopKernel
from repro.machine.spec import MachineSpec
from repro.obs.export import write_chrome_trace, write_jsonl, write_prom
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.runtime import HompRuntime, _shared_kernel_specs

__all__ = [
    "ALL_POLICIES",
    "PolicyGrid",
    "run_one",
    "run_cell",
    "run_grid",
    "runner_metrics",
    "verify_result",
    "verify_batch",
]

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
    verifies many cells of one workload against one reference, and a kernel
    on pooled inputs shares one per input set (``LoopKernel._reference``).
    The mapping is never mutated, so it is safe to share.
    """
    if ref is None:
        ref = kernel._reference()
    if not isinstance(ref, dict):
        ref = {"__reduction__": float(ref)}
    for name, expected in ref.items():
        if name == "__reduction__":
            if result.reduction is None or not np.isclose(
                result.reduction, expected, rtol=1e-6
            ):
                raise OffloadError(
                    f"{kernel.name}/{result.algorithm}: reduction "
                    f"{result.reduction} != reference {expected}"
                )
            continue
        got = kernel.arrays[name]
        # Equal implies close (and NaNs fail both), so the cheap exact
        # comparison first never changes the verdict.
        if not np.array_equal(got, expected) and not np.allclose(
            got, expected, rtol=rtol, atol=1e-12
        ):
            raise OffloadError(
                f"{kernel.name}/{result.algorithm}: array {name!r} does not "
                "match the serial reference"
            )


def verify_batch(cells) -> None:
    """Verify the numerically-executed cells of one ``parallel_for_many`` batch.

    ``cells`` yields ``(share_key, spec, result)``.  Cells of one share key
    run on one kernel (``_shared_kernel_specs``), so its serial reference
    is computed once per key; a cell whose numerics were skipped left the
    arrays untouched and has nothing to check.
    """
    refs: dict = {}
    for share_key, spec, result in cells:
        if not spec.execute_numerically:
            continue
        ref = refs.get(share_key)
        if ref is None:
            ref = refs[share_key] = spec.kernel._reference()
        verify_result(spec.kernel, result, ref=ref)


#: Process-wide counters for the grid runner (batch routing); exported so
#: sweeps can assert they took the path they meant.
_METRICS = MetricsRegistry()


def runner_metrics() -> MetricsRegistry:
    """The grid runner's process-wide metrics registry."""
    return _METRICS


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
) -> OffloadResult:
    """One kernel under one policy, verified.

    ``fault_plan``/``resilience`` inject deterministic faults into the run
    (see :mod:`repro.faults`); verification still applies — a resilient
    run must produce the same answer as the fault-free one.  ``tracer``
    receives the run's span stream (:mod:`repro.obs`); tracing is a pure
    side channel — the returned result is identical with or without it.
    """
    rt = HompRuntime(machine, seed=seed)
    result = rt.parallel_for(
        kernel, schedule=policy, cutoff_ratio=cutoff_ratio,
        fault_plan=fault_plan, resilience=resilience, tracer=tracer,
    )
    if verify:
        verify_result(kernel, result)
    return result


def run_cell(
    machine: MachineSpec,
    factory: Callable[[], LoopKernel],
    policy: str,
    **options,
) -> OffloadResult:
    """One grid cell: ``run_one`` on a fresh kernel from ``factory``."""
    return run_one(machine, factory(), policy, **options)


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


def run_grid(
    machine: MachineSpec,
    kernels: Mapping[str, Callable[[], LoopKernel]],
    *,
    policies: tuple[str, ...] = ALL_POLICIES,
    cutoff_ratio: float = 0.0,
    seed: int = 0,
    verify: bool = True,
    fault_plan: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    trace_dir: str | Path | None = None,
) -> PolicyGrid:
    """Sweep kernel factories over policies.

    ``kernels`` maps display name -> zero-arg factory returning a *fresh*
    kernel (runs mutate output arrays, so each cell needs its own).

    The grid picks how its cells run from its own inputs: untraced and
    without a fault plan or resilience policy, they run as one
    ``parallel_for_many`` batch; otherwise each runs through ``run_one``.
    Results are assembled in the declared kernel/policy order and every
    cell is bit-identical to what ``run_cell`` produces for it.

    ``trace_dir`` enables observability (:mod:`repro.obs`): every cell
    runs traced and the directory receives
    ``<kernel>.<policy>.trace.json`` (Chrome trace-event format, one pid
    per device), ``<kernel>.<policy>.jsonl`` (raw span stream) and one
    grid-wide ``metrics.prom``.  Tracing never changes a result.
    """
    grid = PolicyGrid(machine_name=machine.name, policies=tuple(policies))
    tracing = trace_dir is not None
    options = dict(
        cutoff_ratio=cutoff_ratio, seed=seed, verify=verify,
        fault_plan=fault_plan, resilience=resilience,
    )
    grid.results = {kname: {} for kname in kernels}
    cells = [
        (kname, factory, policy)
        for kname, factory in kernels.items() for policy in grid.policies
    ]

    # Pick how the cells run; each way yields results in ``cells`` order.
    if tracing:
        registry = MetricsRegistry()
        results = _traced_cells(
            machine, cells, Path(trace_dir), registry, **options
        )
    elif cells and fault_plan is None and resilience is None:
        results = _batch_cells(
            machine, cells, cutoff_ratio=cutoff_ratio, seed=seed,
            verify=verify,
        )
    else:
        results = (
            run_one(machine, factory(), policy, **options)
            for _, factory, policy in cells
        )
    for (kname, _, policy), result in zip(cells, results):
        grid.results[kname][policy] = result
    if tracing:
        write_prom(registry, Path(trace_dir) / "metrics.prom")
    return grid


def _batch_cells(
    machine: MachineSpec,
    cells: list,
    *,
    cutoff_ratio: float,
    seed: int,
    verify: bool,
) -> list[OffloadResult]:
    """Run grid cells as one batch on one engine.

    The whole cell list becomes one ``parallel_for_many`` call: one
    engine, one run of the event loop per cell, back to back.  Cells of
    the same factory share one kernel instance: the simulated timeline
    depends only on chunk sizes, so the (expensive) numeric execution and
    reference verification run once per workload, not once per cell
    (the sharing rule is ``_shared_kernel_specs``'s).
    """
    _METRICS.inc("run_grid_batch_cells", float(len(cells)))
    shares = [id(factory) for _, factory, _ in cells]
    specs = _shared_kernel_specs(
        (share, factory, policy, cutoff_ratio)
        for share, (_, factory, policy) in zip(shares, cells)
    )
    batch = HompRuntime(machine, seed=seed).parallel_for_many(specs)
    if verify:
        verify_batch(zip(shares, specs, batch))
    return batch


def _traced_cells(
    machine: MachineSpec,
    cells: list,
    trace_dir: Path,
    registry: MetricsRegistry,
    **options,
) -> "Iterator[OffloadResult]":
    """Run grid cells with tracing, exporting artifacts per cell.

    One metrics registry spans the whole grid; each cell gets its own
    span stream.
    """
    for kname, factory, policy in cells:
        tracer = Tracer(metrics=registry)
        result = run_one(machine, factory(), policy, tracer=tracer, **options)
        stem = f"{kname}.{policy}".replace("/", "_").replace(" ", "_")
        write_chrome_trace(tracer, trace_dir / f"{stem}.trace.json")
        write_jsonl(tracer, trace_dir / f"{stem}.jsonl")
        yield result

