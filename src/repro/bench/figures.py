"""Regenerators for every figure and table of the paper's evaluation.

Each function returns a structured result plus a rendered text table; the
``benchmarks/`` pytest files call these and assert the paper's qualitative
shapes.  Absolute milliseconds differ from the paper (different problem
scale by default, and a simulated rather than physical node); who-wins
relationships are the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import PolicyGrid, run_cell, run_grid
from repro.bench.workloads import (
    WORKLOAD_NAMES,
    WorkloadFactory,
    workload,
    workload_label,
)
from repro.machine.presets import cpu_mic_node, full_node, gpu4_node
from repro.machine.spec import MachineSpec
from repro.util.tables import render_table

__all__ = [
    "fig5_gpu4",
    "fig6_breakdown",
    "fig7_speedup",
    "fig8_cpu_mic",
    "fig9_full_node",
    "table4_characteristics",
    "table5_cutoff",
]

_FIG_KERNELS = ("axpy", "matvec", "matmul", "stencil", "sum", "bm")


def _factories(seed: int = 0) -> dict[str, WorkloadFactory]:
    """Picklable, fingerprintable factories for the figure kernels."""
    return {name: WorkloadFactory(name, seed=seed) for name in _FIG_KERNELS}


@dataclass
class FigureResult:
    """A regenerated figure/table: data plus its text rendering."""

    name: str
    grid: PolicyGrid | None
    text: str
    extra: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def _grid_figure(
    name: str,
    machine: MachineSpec,
    *,
    seed: int = 0,
    trace_dir=None,
) -> FigureResult:
    grid = run_grid(machine, _factories(seed), trace_dir=trace_dir)
    headers = ["kernel"] + list(grid.policies)
    text = render_table(headers, grid.rows(), title=f"{name} — offload time (ms) on {machine.name}")
    return FigureResult(name=name, grid=grid, text=text)


def fig5_gpu4(*, seed: int = 0, trace_dir=None) -> FigureResult:
    """Fig. 5: offload time, 6 kernels x 7 policies, 4 identical K40s.

    ``trace_dir`` exports per-cell Chrome traces and grid metrics (see
    ``run_grid``); it changes nothing about the returned figure.
    """
    return _grid_figure("Fig. 5", gpu4_node(), seed=seed, trace_dir=trace_dir)


def fig6_breakdown(*, seed: int = 0, trace_dir=None) -> FigureResult:
    """Fig. 6: accumulated breakdown (%) of offloading time + imbalance,
    of Fig. 5's sweep."""
    grid = fig5_gpu4(seed=seed, trace_dir=trace_dir).grid
    rows = []
    imbalances: dict[str, float] = {}
    for kname, row in grid.results.items():
        for policy, result in row.items():
            b = result.breakdown_pct()
            imb = result.imbalance_pct()
            imbalances[f"{kname}/{policy}"] = imb
            rows.append(
                [f"{kname}/{policy}", b["data"], b["compute"], b["sched"],
                 b["barrier"], imb]
            )
    text = render_table(
        ["kernel/policy", "data%", "compute%", "sched%", "barrier%", "imbalance%"],
        rows,
        title="Fig. 6 — breakdown of offloading time on 4 GPUs",
    )
    return FigureResult(
        name="Fig. 6", grid=grid, text=text, extra={"imbalances": imbalances}
    )


def fig7_speedup(*, seed: int = 0, max_gpus: int = 4) -> FigureResult:
    """Fig. 7: strong-scaling speedup on 1..4 K40s (best policy per point)."""
    speedups: dict[str, list[float]] = {}
    rows = []
    for kname in _FIG_KERNELS:
        base_s: float | None = None
        series: list[float] = []
        for g in range(1, max_gpus + 1):
            machine = gpu4_node(g)
            grid = run_grid(machine, {kname: WorkloadFactory(kname, seed=seed)})
            best = grid.results[kname][grid.best_policy(kname)]
            if base_s is None:
                base_s = best.total_time_s
            series.append(base_s / best.total_time_s)
        speedups[kname] = series
        rows.append([kname] + [round(s, 2) for s in series])
    text = render_table(
        ["kernel"] + [f"{g} GPU" for g in range(1, max_gpus + 1)],
        rows,
        title="Fig. 7 — speedup vs 1 GPU (best policy each)",
    )
    return FigureResult(
        name="Fig. 7", grid=None, text=text, extra={"speedups": speedups}
    )


def fig8_cpu_mic(*, seed: int = 0, trace_dir=None) -> FigureResult:
    """Fig. 8: offload time, 6 kernels x 7 policies, 2 CPUs + 2 MICs."""
    return _grid_figure(
        "Fig. 8", cpu_mic_node(), seed=seed, trace_dir=trace_dir
    )


def fig9_full_node(
    *, seed: int = 0, cutoff_ratio: float = 0.15, trace_dir=None
) -> FigureResult:
    """Fig. 9: full node (2 CPUs + 4 GPUs + 2 MICs), plus min-with-CUTOFF."""
    machine = full_node()
    grid = run_grid(machine, _factories(seed), trace_dir=trace_dir)
    cutoff_best: dict[str, float] = {}
    cutoff_algo: dict[str, str] = {}
    for kname in _FIG_KERNELS:
        best_ms = float("inf")
        best_pol = ""
        for policy in ("MODEL_1_AUTO", "MODEL_2_AUTO", "SCHED_PROFILE_AUTO",
                       "MODEL_PROFILE_AUTO"):
            result = run_cell(
                machine, WorkloadFactory(kname, seed=seed), policy,
                cutoff_ratio=cutoff_ratio, seed=seed,
            )
            if result.total_time_ms < best_ms:
                best_ms = result.total_time_ms
                best_pol = policy
        cutoff_best[kname] = best_ms
        cutoff_algo[kname] = best_pol
    rows = [
        [k] + [grid.time_ms(k, p) for p in grid.policies] + [cutoff_best[k]]
        for k in _FIG_KERNELS
    ]
    text = render_table(
        ["kernel"] + list(grid.policies) + [f"CUTOFF{cutoff_ratio:.0%}min"],
        rows,
        title=f"Fig. 9 — offload time (ms) on {machine.name}",
    )
    return FigureResult(
        name="Fig. 9",
        grid=grid,
        text=text,
        extra={"cutoff_best_ms": cutoff_best, "cutoff_algo": cutoff_algo},
    )


def table4_characteristics() -> FigureResult:
    """Table IV: MemComp / DataComp ratios and intensity classes."""
    rows = []
    classes: dict[str, str] = {}
    ratios: dict[str, tuple[float, float]] = {}
    for name in _FIG_KERNELS:
        k = workload(name)
        mc, dc = k.mem_comp(), k.data_comp()
        cls = k.costs().intensity_class(k.n_iters).value
        classes[name] = cls
        ratios[name] = (mc, dc)
        rows.append([name, round(mc, 4), round(dc, 4), cls])
    text = render_table(
        ["kernel", "MemComp", "DataComp", "class"],
        rows,
        title="Table IV — benchmark characteristics",
    )
    return FigureResult(
        name="Table IV", grid=None, text=text,
        extra={"classes": classes, "ratios": ratios},
    )


def table5_cutoff(*, seed: int = 0, cutoff_ratio: float = 0.15) -> FigureResult:
    """Table V: per-workload devices-after-CUTOFF and CUTOFF speedup.

    For each named workload, pick the CUTOFF-capable algorithm with the
    best with-cutoff time; the CUTOFF speedup is what enabling the cutoff
    gained *on that algorithm* (its no-cutoff time over its with-cutoff
    time), and the surviving devices come from its with-cutoff run.  The
    paper's 0.5x-3.4x spread appears because the analytical models do not
    price per-device setup costs (which the cutoff saves) but can also cut
    genuinely useful devices (which the cutoff loses).
    """
    machine = full_node()
    algos = ("MODEL_1_AUTO", "MODEL_2_AUTO", "SCHED_PROFILE_AUTO",
             "MODEL_PROFILE_AUTO")
    rows = []
    speedups: dict[str, float] = {}
    survivors: dict[str, tuple[str, ...]] = {}
    for name in WORKLOAD_NAMES:
        best = None  # (cut_time, plain_time, cut_result)
        for policy in algos:
            factory = WorkloadFactory(name, seed=seed)
            r0 = run_cell(machine, factory, policy, seed=seed)
            r1 = run_cell(
                machine, factory, policy,
                cutoff_ratio=cutoff_ratio, seed=seed,
            )
            if best is None or r1.total_time_s < best[0]:
                best = (r1.total_time_s, r0.total_time_s, r1)
        assert best is not None
        cut_s, plain_s, best_cut_result = best
        speedup = plain_s / cut_s
        names = tuple(t.name for t in best_cut_result.participating)
        speedups[name] = speedup
        survivors[name] = names
        rows.append(
            [workload_label(name), _summarise_devices(names), round(speedup, 2)]
        )
    text = render_table(
        ["benchmark", "devices after CUTOFF", "CUTOFF speedup"],
        rows,
        title=f"Table V — speedup using CUTOFF ({cutoff_ratio:.0%})",
    )
    return FigureResult(
        name="Table V", grid=None, text=text,
        extra={"speedups": speedups, "survivors": survivors},
    )


def _summarise_devices(names: tuple[str, ...]) -> str:
    counts: dict[str, int] = {}
    for n in names:
        kind = n.rsplit("-", 1)[0]
        counts[kind] = counts.get(kind, 0) + 1
    label = {"cpu": "CPU", "k40": "GPU", "mic": "MIC"}
    return " + ".join(
        f"{v} {label.get(k, k)}{'s' if v > 1 else ''}" for k, v in counts.items()
    )
