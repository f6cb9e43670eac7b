"""ALIGN loop distribution (dist_schedule(target:[ALIGN(x)]))."""

import pytest

from repro.dist.policy import Block
from repro.errors import SchedulingError
from repro.kernels.registry import make_kernel
from repro.machine.device import Device
from repro.machine.presets import homogeneous_node
from repro.sched.align_sched import AlignedScheduler
from repro.sched.base import SchedContext


def ctx_for(kernel, ndev=4):
    machine = homogeneous_node(ndev)
    devices = [Device(i, s) for i, s in enumerate(machine.devices)]
    return SchedContext(kernel=kernel, devices=devices)


def test_loop_follows_block_partitioned_array():
    k = make_kernel("axpy", 100)
    k.set_partition("x", Block())
    s = AlignedScheduler("x")
    s.start(ctx_for(k, 4))
    chunks = [s.next(d) for d in range(4)]
    assert [len(c) for c in chunks] == [25, 25, 25, 25]
    assert all(s.next(d) is None for d in range(4))


def test_unknown_target_rejected():
    k = make_kernel("axpy", 100)
    s = AlignedScheduler("zz")
    with pytest.raises(SchedulingError):
        s.start(ctx_for(k))


def test_circular_alignment_rejected():
    # kernel's declared policy for x is ALIGN(loop): aligning the loop back
    # onto x is a cycle
    k = make_kernel("axpy", 100)
    s = AlignedScheduler("x")
    with pytest.raises(SchedulingError):
        s.start(ctx_for(k))


def test_empty_target_rejected():
    with pytest.raises(SchedulingError):
        AlignedScheduler("")


def test_extent_mismatch_rejected():
    # matvec's x has extent n, but aligning the loop with ratio 2 produces
    # a 2n-iteration loop distribution: mismatch
    k = make_kernel("axpy", 100)
    k.set_partition("x", Block())
    s = AlignedScheduler("x", ratio=2.0)
    with pytest.raises(SchedulingError):
        s.start(ctx_for(k))


def test_describe():
    assert AlignedScheduler("x").describe() == "ALIGN(x)"
