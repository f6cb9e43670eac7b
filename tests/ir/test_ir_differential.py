"""IR-path vs legacy-directive-path differential: byte identity.

``HompRuntime.offload`` now routes every directive through ``parse ->
lower -> verify -> passes -> execute``.  The scale-down contract demands
that a *single-offload* program produce a result byte-identical (pickle
equality) to the historical direct interpretation of the directive.  The
legacy interpreter no longer exists in the runtime, so it is replicated
verbatim here (from the pre-IR ``offload``) and both paths run over the
differential grid.
"""

import pickle

import numpy as np
import pytest

from repro.kernels.registry import make_kernel
from repro.lang.pragma import parse_directive
from repro.machine.presets import full_node, gpu4_node
from repro.runtime.runtime import HompRuntime

GRID = [
    ("BLOCK", "axpy"),
    ("BLOCK", "sum"),
    ("SCHED_DYNAMIC", "axpy"),
    ("SCHED_DYNAMIC", "sum"),
    ("SCHED_GUIDED", "matvec"),
    ("SCHED_PROFILE_AUTO", "sum"),
]
N = 60_000
SIZES = {"matvec": 2_000}

DIRECTIVE = (
    "omp parallel target device(*) "
    "map(tofrom: y[0:n] partition([BLOCK]))"
)


def legacy_offload(rt, directive, kernel, **kwargs):
    """The pre-IR ``HompRuntime.offload`` body, replicated verbatim."""
    d = parse_directive(directive) if isinstance(directive, str) else directive
    devices = d.device_clause if d.device_clause else None
    for m in d.maps:
        if m.name in kernel.arrays and m.policies:
            kernel.set_partition(m.name, m.policies[0])
    schedule = kwargs.pop("schedule", None)
    if schedule is None:
        if d.dist_schedule is not None:
            schedule = d.dist_schedule.policies[0]
        else:
            schedule = "AUTO"
    kwargs.setdefault("serialize_offload", not d.is_parallel_target)
    return rt.parallel_for(kernel, schedule=schedule, devices=devices, **kwargs)


def run_pair(policy, kname, *, directive=None, machine=gpu4_node, **kwargs):
    """One kernel through both paths, each on a fresh runtime (profile
    history and scheduler state must not leak between the arms).

    The Table II notations (``SCHED_*``) are not ``dist_schedule``
    policies, so the grid exercises them through the ``schedule=``
    escape hatch, which both paths resolve identically.
    """
    n = SIZES.get(kname, N)
    if directive is None:
        directive = "omp parallel target device(*)"
        kwargs.setdefault("schedule", policy)
    k_ir = make_kernel(kname, n, seed=7)
    r_ir = HompRuntime(machine()).offload(directive, k_ir, **dict(kwargs))
    k_legacy = make_kernel(kname, n, seed=7)
    r_legacy = legacy_offload(
        HompRuntime(machine()), directive, k_legacy, **dict(kwargs)
    )
    return k_ir, r_ir, k_legacy, r_legacy


@pytest.mark.parametrize("policy,kname", GRID, ids=[f"{p}-{k}" for p, k in GRID])
def test_ir_path_byte_identical_on_virtual_backend(policy, kname):
    _, r_ir, _, r_legacy = run_pair(policy, kname)
    assert pickle.dumps(r_ir) == pickle.dumps(r_legacy)


@pytest.mark.parametrize("policy,kname", GRID, ids=[f"{p}-{k}" for p, k in GRID])
def test_ir_path_same_numerics(policy, kname):
    k_ir, r_ir, k_legacy, r_legacy = run_pair(policy, kname)
    if k_ir.is_reduction:
        assert r_ir.reduction == r_legacy.reduction
    else:
        for name in k_ir.arrays:
            assert np.array_equal(k_ir.arrays[name], k_legacy.arrays[name])


def test_ir_path_byte_identical_with_partition_override():
    _, r_ir, _, r_legacy = run_pair(
        "BLOCK", "axpy", directive=DIRECTIVE, schedule="BLOCK"
    )
    assert pickle.dumps(r_ir) == pickle.dumps(r_legacy)


def test_ir_path_applies_partition_override_to_kernel():
    from repro.dist.policy import Block

    k_ir, _, k_legacy, _ = run_pair(
        "BLOCK", "axpy", directive=DIRECTIVE, schedule="BLOCK"
    )
    # The override persists on the kernel after the call, as it always has.
    for k in (k_ir, k_legacy):
        by_name = {m.name: m for m in k.effective_maps()}
        assert by_name["y"].policies[0] == Block()


def test_serialized_offload_byte_identical():
    # Without the `parallel target` composite the offload serialises.
    _, r_ir, _, r_legacy = run_pair(
        "BLOCK", "axpy", directive="omp target device(*)", schedule="BLOCK"
    )
    assert r_ir.meta.get("serialized") == r_legacy.meta.get("serialized")
    assert pickle.dumps(r_ir) == pickle.dumps(r_legacy)


def test_device_clause_byte_identical_on_heterogeneous_node():
    _, r_ir, _, r_legacy = run_pair(
        "SCHED_DYNAMIC",
        "axpy",
        directive="omp parallel target device(0:*:NVGPU)",
        machine=full_node,
        schedule="SCHED_DYNAMIC",
    )
    assert pickle.dumps(r_ir) == pickle.dumps(r_legacy)
