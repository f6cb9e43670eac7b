"""Halo-exchange planning and cost."""

import pytest

from repro.dist.distribution import DimDistribution
from repro.dist.policy import Block
from repro.errors import DistributionError, IRVerifyError
from repro.ir.ops import HaloOp
from repro.machine.presets import cpu_mic_node, gpu4_node, homogeneous_node, cpu_spec
from repro.runtime.halo import plan_halo_op
from repro.util.ranges import IterRange


def dist(n, ndev):
    return DimDistribution.from_policy(Block(), IterRange(0, n), ndev)


def halo(width, row_bytes, array="u"):
    return HaloOp(array, lower=width, upper=width, row_bytes=row_bytes)


def test_adjacent_pairs_exchange_both_ways():
    ex = plan_halo_op(gpu4_node(), dist(100, 4), halo(1, 800))
    # 3 adjacent pairs x 2 directions
    assert len(ex.transfers) == 6
    assert ex.total_bytes == 6 * 800


def test_zero_width_is_free():
    ex = plan_halo_op(gpu4_node(), dist(100, 4), halo(0, 800))
    assert ex.transfers == ()
    assert ex.time_s == 0.0


def test_host_only_exchange_is_free():
    m = homogeneous_node(3, cpu_spec())
    ex = plan_halo_op(m, dist(90, 3), halo(2, 1000))
    assert ex.time_s == 0.0
    assert ex.total_bytes > 0  # bytes logically move, but links are shared


def test_cost_counts_both_link_crossings():
    m = gpu4_node(2)
    ex = plan_halo_op(m, dist(100, 2), halo(1, 10_000))
    link = m[0].link
    # each device sends once and receives once over its own link
    assert ex.time_s == pytest.approx(2 * link.transfer_time(10_000))


def test_mixed_node_cost_dominated_by_slowest_device():
    m = cpu_mic_node()
    ex = plan_halo_op(m, dist(100, 4), halo(1, 100_000))
    mic_link = m[2].link
    # mic-0 sits between cpu-1 and mic-1: two sends + two receives
    assert ex.time_s == pytest.approx(4 * mic_link.transfer_time(100_000))


def test_empty_owners_skipped():
    # 2 iterations over 4 devices: only devices 0 and 1 own rows
    ex = plan_halo_op(gpu4_node(), dist(2, 4), halo(1, 100))
    assert len(ex.transfers) == 2
    assert {(t.src, t.dst) for t in ex.transfers} == {(0, 1), (1, 0)}


def test_single_owner_no_exchange():
    ex = plan_halo_op(gpu4_node(1), dist(10, 1), halo(3, 100))
    assert ex.transfers == ()


def test_negative_width_rejected():
    with pytest.raises(IRVerifyError):
        halo(-1, 8)


def test_device_count_mismatch_rejected():
    with pytest.raises(DistributionError):
        plan_halo_op(gpu4_node(), dist(100, 3), halo(1, 8))


# -- host-shared endpoints and ledger routing --------------------------------


def shared_discrete_node():
    """Two host-shared CPUs + one discrete GPU."""
    import dataclasses
    from repro.machine.presets import k40_spec
    from repro.machine.spec import MachineSpec

    return MachineSpec(
        name="2cpu+1gpu",
        devices=(
            dataclasses.replace(cpu_spec(), name="cpu-0"),
            dataclasses.replace(cpu_spec(), name="cpu-1"),
            k40_spec("k40-0"),
        ),
    )


def test_shared_pairs_free_discrete_crossings_charged():
    """Pin the docstring contract: host-shared endpoints exchange for free,
    only the discrete device's two crossings (one send + one receive per
    neighbour) cost link time."""
    m = shared_discrete_node()
    ex = plan_halo_op(m, dist(90, 3), halo(1, 1000))
    assert len(ex.transfers) == 4  # 2 adjacent pairs x 2 directions
    gpu_link = m[2].link
    # cpu-0 <-> cpu-1 free; cpu-1 <-> k40 costs only the k40's crossings
    assert ex.time_s == pytest.approx(2 * gpu_link.transfer_time(1000))


def test_unified_endpoints_exchange_free():
    """UNIFIED devices share host memory: their halo crossings are free
    (page migration is charged at access time by the engine's unified
    model, not by the exchange)."""
    import dataclasses
    from repro.machine.presets import k40_unified_spec
    from repro.machine.spec import MachineSpec

    m = MachineSpec(
        name="2um",
        devices=(
            k40_unified_spec("um-0"),
            dataclasses.replace(k40_unified_spec(), name="um-1"),
        ),
    )
    ex = plan_halo_op(m, dist(100, 2), halo(1, 10_000))
    assert ex.total_bytes > 0  # bytes logically move
    assert ex.time_s == 0.0


def test_ledger_elides_repeat_exchanges():
    """First exchange pays, a repeat is fully elided, and a write on the
    owner re-opens the bill for the written boundary."""
    from repro.memory.residency import RegionResidency, ResidencyLedger

    m = gpu4_node(2)
    d = dist(100, 2)
    led = ResidencyLedger()
    led.register("u", 100, 800)
    # each device starts valid exactly on its own block half
    led.retain(0, "u", [IterRange(0, 50)])
    led.retain(1, "u", [IterRange(50, 100)])
    led.mark_valid(0, "u", [IterRange(0, 50)])
    led.mark_valid(1, "u", [IterRange(50, 100)])
    view = RegionResidency(led, (0, 1))

    first = plan_halo_op(m, d, halo(1, 800), residency=view)
    assert first.total_bytes == 2 * 800
    assert first.elided_bytes == 0
    assert first.time_s > 0.0

    second = plan_halo_op(m, d, halo(1, 800), residency=view)
    assert second.transfers == ()
    assert second.elided_bytes == 2 * 800
    assert second.time_s == 0.0

    # device 0 rewrites its half: device 1's copy of row 49 goes stale
    led.note_write(0, "u", IterRange(0, 50))
    third = plan_halo_op(m, d, halo(1, 800), residency=view)
    assert third.total_bytes == 800  # only the re-written boundary repays
    assert third.elided_bytes == 800


def test_unknown_array_falls_back_to_flat_planning():
    from repro.memory.residency import RegionResidency, ResidencyLedger

    view = RegionResidency(ResidencyLedger(), (0, 1))
    m = gpu4_node(2)
    ex = plan_halo_op(
        m, dist(100, 2), halo(1, 800, array="nope"), residency=view
    )
    assert ex.total_bytes == 2 * 800
    assert ex.elided_bytes == 0
