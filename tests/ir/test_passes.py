"""Rewrite passes: normalize-maps, derive-halo, fuse-adjacent-offloads."""

import dataclasses

import numpy as np
import pytest

from repro.dist.policy import Align, Block, Full
from repro.errors import IRVerifyError
from repro.ir.lower import from_directive, from_directives
from repro.ir.ops import FusedOffloadOp, MapOp, Program
from repro.ir.passes import (
    DEFAULT_PIPELINE,
    derive_halo,
    fuse_adjacent_offloads,
    normalize_maps,
    run_passes,
)
from repro.ir.verify import verify_program
from repro.kernels.registry import make_kernel
from repro.memory.space import MapDirection


def region_program(*maps):
    import repro.ir.lower as lower

    decls = tuple(
        lower.decl_for(m.array, np.zeros(100)) for m in {m.array: m for m in maps}.values()
    )
    return Program(decls=decls, region_maps=tuple(maps))


def mk(array, direction, policy, halo=(0, 0)):
    return MapOp(array=array, direction=direction, policies=(policy,), halo=halo)


# -- normalize-maps ----------------------------------------------------------


def test_normalize_merges_duplicate_maps_direction_union():
    program = region_program(
        mk("u", MapDirection.TO, Block(), halo=(1, 0)),
        mk("u", MapDirection.FROM, Block(), halo=(0, 2)),
    )
    out = normalize_maps(program)
    assert len(out.region_maps) == 1
    merged = out.region_maps[0]
    assert merged.direction is MapDirection.TOFROM
    assert merged.policies == (Block(),)
    assert merged.halo == (1, 2)  # per-side maximum


def test_normalize_widens_full_over_partitioned():
    program = region_program(
        mk("x", MapDirection.TO, Block(), halo=(1, 1)),
        mk("x", MapDirection.TO, Full()),
    )
    merged = normalize_maps(program).region_maps[0]
    assert merged.policies == (Full(),)
    assert merged.halo == (0, 0)  # a replicated map has no boundary


def test_normalize_conflicting_partitions_rejected():
    program = region_program(
        mk("x", MapDirection.TO, Block()),
        mk("x", MapDirection.TO, Align("loop")),
    )
    with pytest.raises(IRVerifyError, match="conflicting partition"):
        normalize_maps(program)


def test_normalize_is_identity_when_nothing_merges():
    kernel = make_kernel("axpy", 100, seed=0)
    program = from_directive("omp parallel target", kernel)
    assert normalize_maps(program) is program


# -- derive-halo -------------------------------------------------------------


def test_derive_halo_attaches_ops_with_row_bytes():
    kernel = make_kernel("stencil", 64, seed=0)
    program = from_directive("omp parallel target device(*)", kernel)
    out = derive_halo(program)
    halos = out.ops[0].halos
    halo_maps = {
        m.array: m.halo
        for m in program.ops[0].maps
        if m.partitioned and m.halo != (0, 0)
    }
    assert {h.array for h in halos} == set(halo_maps)
    for h in halos:
        assert (h.lower, h.upper) == halo_maps[h.array]
        assert h.row_bytes == program.decl(h.array).row_bytes
        assert h.row_bytes > 0


def test_derive_halo_identity_without_stencils():
    program = from_directive(
        "omp parallel target", make_kernel("axpy", 100, seed=0)
    )
    assert derive_halo(program) is program


# -- fuse-adjacent-offloads --------------------------------------------------


def chain_program(n=64):
    from repro.apps.blas_chain import two_kernel_chain

    pairs, _ = two_kernel_chain(n)
    return from_directives(pairs)


def test_fusion_groups_compatible_chain():
    program = chain_program()
    fused = fuse_adjacent_offloads(program)
    assert len(fused.ops) == 1
    group = fused.ops[0]
    assert isinstance(group, FusedOffloadOp)
    assert len(group.members) == 2
    by_name = {m.array: m for m in group.region_maps}
    # matvec reads x replicated, axpy reads it aligned: widened to FULL
    assert by_name["x"].policies == (Full(),)
    # y: FROM (matvec) + TOFROM (axpy) -> TOFROM, aligned both times
    assert by_name["y"].direction is MapDirection.TOFROM
    assert by_name["y"].policies == (Align("loop"),)
    assert verify_program(fused) is fused


def test_fusion_requires_host_array_identity():
    # axpy and sum both map an "x", but each kernel owns a distinct host
    # array (pooled inputs hand out fresh copies): the shared *name* is
    # not enough, fusion demands the same ndarray object.
    k1 = make_kernel("axpy", 100, seed=0)
    k2 = make_kernel("sum", 100, seed=0)
    program = from_directives(
        [
            ("omp parallel target", k1),
            ("omp parallel target", k2),
        ]
    )
    fused = fuse_adjacent_offloads(program)
    assert len(fused.ops) == 2  # unfused: x binds different host arrays


def test_fusion_requires_matching_iteration_count():
    program = chain_program()
    second = dataclasses.replace(
        program.ops[1], n_iters=program.ops[1].n_iters // 2
    )
    program = dataclasses.replace(program, ops=(program.ops[0], second))
    assert fuse_adjacent_offloads(program).ops == program.ops


def test_fusion_requires_matching_devices_and_serialization():
    k = make_kernel("axpy", 100, seed=0)
    program = from_directives(
        [
            ("omp parallel target device(*)", k),
            ("omp target device(*)", k),  # serialised member
        ]
    )
    assert fuse_adjacent_offloads(program).ops == program.ops


def test_fusion_never_raises_on_irreconcilable_maps():
    # Same host array, written, but partitioned two different ways:
    # fusion is simply skipped, not an error.
    k1 = make_kernel("axpy", 100, seed=0)
    k2 = make_kernel("axpy", 100, seed=0)
    k2.arrays.update(k1.arrays)  # share host arrays
    k2.set_partition("y", Full())
    program = from_directives(
        [("omp parallel target", k1), ("omp parallel target", k2)]
    )
    fused = fuse_adjacent_offloads(program)
    assert not any(isinstance(op, FusedOffloadOp) for op in fused.ops)


# -- run_passes --------------------------------------------------------------


def test_run_passes_default_pipeline():
    program = chain_program()
    fused = run_passes(program)
    assert isinstance(fused.ops[0], FusedOffloadOp)


def test_run_passes_empty_pipeline_disables_rewriting():
    program = chain_program()
    assert run_passes(program, ()) is program


def test_run_passes_accepts_callables():
    program = chain_program()
    seen = []

    def spy(p):
        seen.append(p)
        return p

    assert run_passes(program, (spy,)) is program
    assert seen == [program]


def test_run_passes_unknown_name_rejected():
    with pytest.raises(IRVerifyError, match="unknown IR pass"):
        run_passes(chain_program(), ("inline-everything",))


def test_default_pipeline_names_are_registered():
    from repro.ir.passes import PASSES

    assert set(DEFAULT_PIPELINE) <= set(PASSES)
