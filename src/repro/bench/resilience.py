"""Resilience sweep: makespan degradation of policy x fault-plan cells.

The paper's evaluation assumes devices behave as described; this module
measures what each Table II algorithm does when they don't.  For every
(policy, fault plan) cell it runs the same workload fault-free and under
the plan, and reports:

* the **makespan degradation** — faulted time over fault-free time;
* whether the faulted run's **output checksum** matches the fault-free
  run's (resilience must never buy speed with wrong answers);
* the engine's fault accounting (events, retries, lost devices).

The qualitative target is the paper's load-balancing story inverted:
static BLOCK has no mechanism to route around a straggler or a lost
device, so its degradation is the worst, while the adaptive algorithms
(SCHED_DYNAMIC, SCHED_PROFILE_AUTO) degrade gracefully.

Checksum identity across chunkings holds for elementwise kernels (axpy,
stencil); BLAS-backed kernels (matvec, matmul) are chunk-shape-sensitive
at ~1e-13, so sweeps that assert bit-identity must use elementwise
workloads — see docs/RESILIENCE.md.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Sequence

from repro.bench.figures import FigureResult
from repro.bench.runner import run_one
from repro.engine.trace import OffloadResult
from repro.faults.plan import DeviceDropout, FaultPlan, Slowdown, TransferError
from repro.faults.policy import ResiliencePolicy
from repro.kernels.base import LoopKernel
from repro.machine.spec import MachineSpec
from repro.util.tables import render_table

__all__ = [
    "output_checksum",
    "straggler_plan",
    "dropout_plan",
    "flaky_transfer_plan",
    "dead_link_plan",
    "block_reference_makespan",
    "resilience_sweep",
]


def output_checksum(kernel: LoopKernel, result: OffloadResult) -> str:
    """Digest of everything an offload is answerable for.

    Covers the bytes of every copied-out array plus the reduction value;
    two runs computed the same answer iff their checksums match.
    """
    h = hashlib.sha256()
    for m in kernel.effective_maps():
        if m.direction.copies_out:
            h.update(m.name.encode("utf-8"))
            h.update(kernel.arrays[m.name].tobytes())
    if result.reduction is not None:
        h.update(struct.pack("<d", float(result.reduction)))
    return h.hexdigest()


def straggler_plan(victim: int, factor: float = 4.0) -> FaultPlan:
    """One device runs ``factor``x slower for the whole offload."""
    return FaultPlan.of(
        Slowdown(devid=victim, factor=factor),
        name=f"straggler(dev{victim},x{factor:g})",
    )


def dropout_plan(victim: int, t: float) -> FaultPlan:
    """One device disappears at virtual time ``t`` (seconds)."""
    return FaultPlan.of(
        DeviceDropout(devid=victim, t=t),
        name=f"dropout(dev{victim},{t * 1e3:.3f}ms)",
    )


def flaky_transfer_plan(victim: int, p_fail: float = 0.05, seed: int = 7) -> FaultPlan:
    """One device's PCIe transfers fail with probability ``p_fail``."""
    return FaultPlan.of(
        TransferError(devid=victim, p_fail=p_fail, seed=seed),
        name=f"flaky(dev{victim},p={p_fail:g})",
    )


def dead_link_plan(victim: int, p_fail: float = 0.97, seed: int = 7) -> FaultPlan:
    """A near-dead link: retries exhaust and the device is quarantined."""
    return FaultPlan.of(
        TransferError(devid=victim, p_fail=p_fail, seed=seed),
        name=f"dead-link(dev{victim},p={p_fail:g})",
    )


def block_reference_makespan(
    machine: MachineSpec,
    factory: Callable[[], LoopKernel],
    *,
    seed: int = 0,
) -> float:
    """BLOCK's fault-free makespan (seconds) — the shared reference point.

    Dropout scenarios anchor the drop time to one policy's fault-free
    timeline (BLOCK's, the static baseline) so every policy faces the
    *same* fault, not a fault scaled to its own speed.
    """
    return run_one(machine, factory(), "BLOCK", seed=seed).total_time_s


def resilience_sweep(
    machine: MachineSpec,
    factory: Callable[[], LoopKernel],
    *,
    policies: Sequence[str],
    plans: Sequence[FaultPlan],
    seed: int = 0,
    resilience: ResiliencePolicy | None = None,
    verify: bool = True,
) -> FigureResult:
    """Run the (policy x plan) grid and tabulate degradation.

    Every cell runs ``verify``'d against the kernel's serial reference
    (a resilient run that computes the wrong answer has not survived
    anything), and its output checksum is compared against the same
    policy's fault-free run.  Returns a :class:`FigureResult` whose
    ``extra`` carries the machine-readable payload (also the JSON body
    the benchmark writes to ``benchmarks/results/``).
    """
    baselines: dict[str, tuple[float, str]] = {}
    for policy in policies:
        kernel = factory()
        result = run_one(machine, kernel, policy, seed=seed, verify=verify)
        baselines[policy] = (result.total_time_s, output_checksum(kernel, result))

    rows: list[list[object]] = []
    cells: list[dict[str, object]] = []
    degradation: dict[str, dict[str, float]] = {}
    checksums_match: dict[str, dict[str, bool]] = {}
    for plan in plans:
        degradation[plan.name] = {}
        checksums_match[plan.name] = {}
        for policy in policies:
            kernel = factory()
            result = run_one(
                machine, kernel, policy, seed=seed, verify=verify,
                fault_plan=plan, resilience=resilience,
            )
            base_s, base_sum = baselines[policy]
            deg = result.total_time_s / base_s if base_s > 0 else float("inf")
            same = output_checksum(kernel, result) == base_sum
            faults = result.meta.get("faults", {})
            degradation[plan.name][policy] = deg
            checksums_match[plan.name][policy] = same
            rows.append([
                plan.name,
                policy,
                round(base_s * 1e3, 3),
                round(result.total_time_s * 1e3, 3),
                f"{deg:.3f}x",
                "ok" if same else "MISMATCH",
                faults.get("events", 0),
                ",".join(faults.get("lost", [])) or "-",
            ])
            cells.append({
                "plan": plan.name,
                "policy": policy,
                "base_ms": base_s * 1e3,
                "faulted_ms": result.total_time_s * 1e3,
                "degradation": deg,
                "checksum_matches": same,
                "fault_events": faults.get("events", 0),
                "retries": faults.get("retries", 0),
                "lost": list(faults.get("lost", [])),
                "quarantined": list(faults.get("quarantined", [])),
            })

    text = render_table(
        ["fault plan", "policy", "base ms", "faulted ms", "degradation",
         "output", "events", "lost"],
        rows,
        title=f"Resilience — makespan degradation on {machine.name}",
    )
    payload = {
        "machine": machine.name,
        "seed": seed,
        "policies": list(policies),
        "plans": [p.to_dict() for p in plans],
        "resilience": (resilience or ResiliencePolicy()).to_dict(),
        "cells": cells,
    }
    return FigureResult(
        name="Resilience",
        grid=None,
        text=text,
        extra={
            "degradation": degradation,
            "checksums_match": checksums_match,
            "payload": payload,
        },
    )
