"""IR op vocabulary: halo legs, immutability, verifier."""

import dataclasses

import numpy as np
import pytest

from repro.dist.distribution import DimDistribution
from repro.dist.policy import Align, Block, Full
from repro.errors import IRVerifyError
from repro.ir.lower import from_directive
from repro.ir.ops import DataDecl, HaloOp, MapOp, Program
from repro.ir.verify import verify_program
from repro.kernels.registry import make_kernel
from repro.memory.space import MapDirection
from repro.util.ranges import IterRange


# -- DataDecl ----------------------------------------------------------------


def test_decl_rows_and_row_bytes():
    d = DataDecl(name="A", shape=(100, 8), dtype="float64", nbytes=6400)
    assert d.rows == 100
    assert d.row_bytes == 64
    scalar = DataDecl(name="s", shape=(), dtype="float64", nbytes=8)
    assert scalar.rows == 1
    assert scalar.row_bytes == 8


# -- HaloOp ------------------------------------------------------------------


def block_dist(n, ndev):
    return DimDistribution.from_policy(Block(), IterRange(0, n), ndev)


def test_halo_legs_adjacent_pairs_both_ways():
    op = HaloOp(array="u", lower=1, upper=1, row_bytes=8)
    legs = op.legs(block_dist(100, 4))
    assert [(l.src, l.dst, (l.rows.start, l.rows.stop)) for l in legs] == [
        (0, 1, (24, 25)),
        (1, 0, (25, 26)),
        (1, 2, (49, 50)),
        (2, 1, (50, 51)),
        (2, 3, (74, 75)),
        (3, 2, (75, 76)),
    ]


def test_halo_legs_asymmetric_widths():
    # lower=2 feeds each device's lower halo; upper=0 sends nothing up.
    op = HaloOp(array="u", lower=2, upper=0)
    legs = op.legs(block_dist(100, 2))
    assert [(l.src, l.dst, (l.rows.start, l.rows.stop)) for l in legs] == [
        (0, 1, (48, 50)),
    ]


def test_halo_legs_skip_empty_owners():
    op = HaloOp(array="u", lower=1, upper=1)
    legs = op.legs(block_dist(2, 4))  # only devices 0 and 1 own a row
    assert {(l.src, l.dst) for l in legs} == {(0, 1), (1, 0)}


def test_halo_zero_width_no_legs():
    assert HaloOp(array="u", lower=0, upper=0).legs(block_dist(100, 4)) == ()


def test_halo_negative_width_rejected():
    with pytest.raises(IRVerifyError):
        HaloOp(array="u", lower=-1, upper=0)


# -- immutability ------------------------------------------------------------


def test_ir_nodes_are_frozen():
    nodes = [
        DataDecl(name="x", shape=(4,), dtype="float64", nbytes=32),
        MapOp(array="x", direction=MapDirection.TO),
        HaloOp(array="x", lower=1, upper=1),
        Program(),
    ]
    for node in nodes:
        field = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, None)


# -- Program / verifier ------------------------------------------------------


def program_for(kname="axpy", n=100):
    kernel = make_kernel(kname, n, seed=0)
    return from_directive("omp parallel target device(*)", kernel), kernel


def test_program_decl_lookup():
    program, kernel = program_for()
    assert program.decl("y").shape == kernel.arrays["y"].shape
    with pytest.raises(IRVerifyError):
        program.decl("nope")


def test_verify_accepts_lowered_program():
    program, _ = program_for()
    assert verify_program(program) is program


def test_verify_rejects_empty_program():
    with pytest.raises(IRVerifyError):
        verify_program(Program())


def test_verify_rejects_duplicate_decls():
    program, _ = program_for()
    bad = dataclasses.replace(program, decls=program.decls + program.decls[:1])
    with pytest.raises(IRVerifyError):
        verify_program(bad)


def test_verify_rejects_policy_rank_mismatch():
    program, _ = program_for()
    op = program.ops[0]
    maps = tuple(
        dataclasses.replace(m, policies=m.policies + (Full(),))
        for m in op.maps
    )
    bad = dataclasses.replace(
        program, ops=(dataclasses.replace(op, maps=maps),)
    )
    with pytest.raises(IRVerifyError):
        verify_program(bad)


def test_verify_rejects_halo_on_replicated_map():
    program, _ = program_for()
    op = program.ops[0]
    maps = tuple(
        dataclasses.replace(m, policies=(Full(),), halo=(1, 1))
        for m in op.maps
    )
    bad = dataclasses.replace(
        program, ops=(dataclasses.replace(op, maps=maps),)
    )
    with pytest.raises(IRVerifyError):
        verify_program(bad)


def test_verify_rejects_host_array_identity_violation():
    # Two ops mapping the same name must bind the same host ndarray.
    k1 = make_kernel("axpy", 100, seed=0)
    k2 = make_kernel("axpy", 100, seed=1)
    from repro.ir.lower import from_directives

    program = from_directives(
        [
            ("omp parallel target device(*)", k1),
            ("omp parallel target device(*)", k2),
        ]
    )
    with pytest.raises(IRVerifyError):
        verify_program(program)


def test_program_offloads_flatten_fused_groups():
    from repro.ir.ops import FusedOffloadOp
    from repro.ir.passes import run_passes

    k = make_kernel("axpy", 100, seed=0)
    from repro.ir.lower import from_directives

    program = from_directives(
        [
            ("omp parallel target device(*)", k),
            ("omp parallel target device(*)", k),
        ]
    )
    fused = run_passes(program)
    assert isinstance(fused.ops[0], FusedOffloadOp)
    assert fused.offloads == program.ops


def test_describe_lists_ops():
    program, kernel = program_for()
    text = program.describe()
    assert kernel.name in text
    assert "decl y" in text
