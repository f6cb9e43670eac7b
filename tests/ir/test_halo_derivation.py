"""Exact-match pins for symbolic halo derivation (HaloOp -> legs -> cost).

The IR derives boundary legs from halo widths and owner spans; these tests pin the
derived transfers and priced times *exactly* for radii 1-3 on every
memory-kind combination the machine presets exercise: all-shared,
all-discrete, UNIFIED pairs, and a mixed two-shared+one-discrete node.
"""

import dataclasses

import pytest

from repro.dist.distribution import DimDistribution
from repro.dist.policy import Block
from repro.ir.ops import HaloOp
from repro.machine.presets import (
    cpu_spec,
    gpu4_node,
    homogeneous_node,
    k40_spec,
    k40_unified_spec,
)
from repro.machine.spec import MachineSpec
from repro.runtime.halo import plan_halo_op
from repro.util.ranges import IterRange

ROW_BYTES = 800


def dist(n, ndev):
    return DimDistribution.from_policy(Block(), IterRange(0, n), ndev)


def shared_discrete_node():
    """Two host-shared CPUs + one discrete GPU."""
    return MachineSpec(
        name="2cpu+1gpu",
        devices=(
            dataclasses.replace(cpu_spec(), name="cpu-0"),
            dataclasses.replace(cpu_spec(), name="cpu-1"),
            k40_spec("k40-0"),
        ),
    )


def unified_pair():
    return MachineSpec(
        name="2um",
        devices=(
            k40_unified_spec("um-0"),
            dataclasses.replace(k40_unified_spec(), name="um-1"),
        ),
    )


def legs_of(ex):
    return [(t.src, t.dst, (t.rows.start, t.rows.stop)) for t in ex.transfers]


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_shared_node_legs_pinned_and_free(radius):
    # 90 rows over 3 CPUs: blocks [0,30) [30,60) [60,90).
    m = homogeneous_node(3, cpu_spec())
    op = HaloOp(array="u", lower=radius, upper=radius, row_bytes=ROW_BYTES)
    ex = plan_halo_op(m, dist(90, 3), op)
    assert legs_of(ex) == [
        (0, 1, (30 - radius, 30)),
        (1, 0, (30, 30 + radius)),
        (1, 2, (60 - radius, 60)),
        (2, 1, (60, 60 + radius)),
    ]
    assert ex.total_bytes == 4 * radius * ROW_BYTES
    assert ex.time_s == 0.0  # host-shared endpoints exchange for free


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_discrete_node_legs_and_cost_pinned(radius):
    # 100 rows over 4 GPUs: blocks of 25.
    m = gpu4_node()
    op = HaloOp(array="u", lower=radius, upper=radius, row_bytes=ROW_BYTES)
    ex = plan_halo_op(m, dist(100, 4), op)
    assert legs_of(ex) == [
        (0, 1, (25 - radius, 25)),
        (1, 0, (25, 25 + radius)),
        (1, 2, (50 - radius, 50)),
        (2, 1, (50, 50 + radius)),
        (2, 3, (75 - radius, 75)),
        (3, 2, (75, 75 + radius)),
    ]
    assert ex.total_bytes == 6 * radius * ROW_BYTES
    # Middle devices each cross their link four times (2 sends + 2
    # receives); the exchange completes when the slowest is done.
    link = m[1].link
    assert ex.time_s == pytest.approx(
        4 * link.transfer_time(radius * ROW_BYTES)
    )


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_unified_pair_moves_bytes_for_free(radius):
    m = unified_pair()
    op = HaloOp(array="u", lower=radius, upper=radius, row_bytes=ROW_BYTES)
    ex = plan_halo_op(m, dist(100, 2), op)
    assert legs_of(ex) == [
        (0, 1, (50 - radius, 50)),
        (1, 0, (50, 50 + radius)),
    ]
    assert ex.total_bytes == 2 * radius * ROW_BYTES
    # UNIFIED pages migrate at access time (the engine's unified model
    # charges that); the exchange itself is free.
    assert ex.time_s == 0.0


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_mixed_shared_discrete_node_pinned(radius):
    # cpu-0 [0,30) | cpu-1 [30,60) | k40 [60,90): the cpu-cpu pair is
    # free, only the k40's two crossings cost link time.
    m = shared_discrete_node()
    op = HaloOp(array="u", lower=radius, upper=radius, row_bytes=ROW_BYTES)
    ex = plan_halo_op(m, dist(90, 3), op)
    assert legs_of(ex) == [
        (0, 1, (30 - radius, 30)),
        (1, 0, (30, 30 + radius)),
        (1, 2, (60 - radius, 60)),
        (2, 1, (60, 60 + radius)),
    ]
    gpu_link = m[2].link
    assert ex.time_s == pytest.approx(
        2 * gpu_link.transfer_time(radius * ROW_BYTES)
    )


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_asymmetric_widths_pinned(radius):
    # lower=radius, upper=0: only the down legs (feeding each device's
    # lower halo) survive.
    m = gpu4_node(2)
    op = HaloOp(array="u", lower=radius, upper=0, row_bytes=ROW_BYTES)
    ex = plan_halo_op(m, dist(100, 2), op)
    assert legs_of(ex) == [(0, 1, (50 - radius, 50))]
    assert ex.total_bytes == radius * ROW_BYTES


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize(
    "machine,n,ndev",
    [
        (gpu4_node(), 100, 4),
        (homogeneous_node(3, cpu_spec()), 90, 3),
        (unified_pair(), 100, 2),
        (shared_discrete_node(), 90, 3),
    ],
    ids=["gpu4", "shared3", "unified2", "mixed3"],
)
def test_width_surface_equals_ir_op(machine, n, ndev, radius):
    # Width-only callers pass an unnamed symmetric op; without a ledger
    # view the array name must not change the plan, transfer for transfer.
    d = dist(n, ndev)
    via_width = plan_halo_op(
        machine,
        d,
        HaloOp(array="", lower=radius, upper=radius, row_bytes=ROW_BYTES),
    )
    via_op = plan_halo_op(
        machine,
        d,
        HaloOp(array="u", lower=radius, upper=radius, row_bytes=ROW_BYTES),
    )
    assert via_width == via_op


def test_derived_halo_op_prices_like_directive_path():
    # End to end: lower a stencil offload, run derive-halo, price the
    # attached op — identical to the symmetric-width op the runtime's
    # halo_exchange directive would produce (RADIUS = 3).
    from repro.ir.lower import from_directive
    from repro.ir.passes import derive_halo
    from repro.kernels.registry import make_kernel
    from repro.kernels.stencil import RADIUS

    kernel = make_kernel("stencil", 64, seed=0)
    program = derive_halo(from_directive("omp parallel target", kernel))
    (halo_op,) = program.ops[0].halos
    assert (halo_op.lower, halo_op.upper) == (RADIUS, RADIUS)
    assert halo_op.row_bytes == kernel.row_nbytes("u_in")
    m = gpu4_node()
    d = dist(64, 4)
    assert plan_halo_op(m, d, halo_op) == plan_halo_op(
        m,
        d,
        HaloOp("u_in", lower=RADIUS, upper=RADIUS, row_bytes=halo_op.row_bytes),
    )
