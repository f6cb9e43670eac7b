"""LoopKernel base machinery: cost accounting, overrides, ledger charging."""

import numpy as np
import pytest

from repro.dist.policy import Block, Full
from repro.engine.core import make_backend
from repro.errors import MappingError
from repro.kernels.axpy import AxpyKernel
from repro.kernels.matvec import MatVecKernel
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.runtime.runtime import HompRuntime
from repro.util.ranges import IterRange
from tests.kernels.private_inputs import private_inputs


def test_chunk_cost_scales_linearly():
    k = AxpyKernel(1000)
    c1 = k.chunk_cost(IterRange(0, 100))
    c2 = k.chunk_cost(IterRange(0, 200))
    assert c2.flops == pytest.approx(2 * c1.flops)
    assert c2.xfer_in_bytes == pytest.approx(2 * c1.xfer_in_bytes)


def test_axpy_chunk_cost_values():
    k = AxpyKernel(1000)
    c = k.chunk_cost(IterRange(0, 100))
    assert c.flops == 200.0
    assert c.mem_bytes == 100 * 3 * 8
    assert c.xfer_in_bytes == 100 * 2 * 8   # x in + y in
    assert c.xfer_out_bytes == 100 * 1 * 8  # y out
    assert c.replicated_in_bytes == 0.0


def test_matvec_replicated_bytes_counts_x():
    k = MatVecKernel(64)
    assert k.replicated_in_bytes() == 64 * 8


def test_execute_chunk_out_of_space_rejected():
    k = AxpyKernel(100)
    with pytest.raises(MappingError):
        k.execute_chunk(IterRange(50, 150))


def test_execute_empty_chunk_is_noop():
    k = AxpyKernel(100)
    before = k.arrays["y"].copy()
    k.execute_chunk(IterRange(10, 10))
    assert np.array_equal(k.arrays["y"], before)


def test_stats_accumulate():
    k = AxpyKernel(100)
    k.execute_chunk(IterRange(0, 30))
    k.execute_chunk(IterRange(30, 100))
    assert k.stats.chunks == 2
    assert k.stats.iterations == 100


def test_set_partition_overrides_dim0():
    k = AxpyKernel(100)
    k.set_partition("x", Block())
    eff = {m.name: m for m in k.effective_maps()}
    assert eff["x"].policies[0] == Block()
    # declared maps unchanged
    assert {m.name: m for m in k.maps()}["x"].policies[0] != Block()


def test_set_partition_unknown_array_rejected():
    with pytest.raises(MappingError):
        AxpyKernel(100).set_partition("zz", Block())


def test_partial_residency():
    # Only A is mapped by the region: the ledger view elides A's rows and
    # charges y and x exactly like the kernel's flat chunk cost would.
    from repro.memory.residency import RegionResidency, ResidencyLedger

    k = MatVecKernel(64)
    led = ResidencyLedger()
    led.register("A", 64, k.row_nbytes("A"))
    led.retain(0, "A", [IterRange(0, 64)])
    led.mark_valid(0, "A", [IterRange(0, 64)])
    bytes_in, bytes_out, elided_in, _ = RegionResidency(led, (0,)).charge_chunk(
        0, k, IterRange(0, 8), first_chunk=True
    )
    # y still moves both ways and x is still broadcast; A's row traffic gone
    assert bytes_in == 8 * 8 + 64 * 8
    assert bytes_out == 8 * 8
    assert elided_in == 8 * k.row_nbytes("A")


def test_reference_uses_pristine_inputs():
    k = AxpyKernel(100, seed=5)
    expected = k.reference()["y"].copy()
    k.execute_chunk(IterRange(0, 100))   # mutates y in place
    assert np.array_equal(k.reference()["y"], expected)


class _WritesItsInput(AxpyKernel):
    """Breaks the contract: ``compute`` writes through its ``to`` map."""

    def compute(self, buffers, rows):
        buffers["x"].local_view(rows)[:] = 0.0
        return super().compute(buffers, rows)


@pytest.mark.parametrize("executor", ["virtual"])
@pytest.mark.parametrize("pool", ["on", "off"])
@pytest.mark.parametrize("machine", [gpu4_node, full_node])
def test_writing_a_to_map_raises_on_every_device_kind(machine, pool, executor):
    """Discrete devices, host devices, pooled read-only inputs and private
    writable ones all refuse the write with numpy's read-only error, on a
    leased engine as on the one ``parallel_for`` builds."""
    rt = HompRuntime(machine())
    leased = make_backend(executor, rt.machine.subset(range(len(rt.machine))))
    for engine in (None, leased):
        k = _WritesItsInput(4_000, seed=3)
        if pool == "off":
            k = private_inputs(k)
        assert k.arrays["x"].flags.writeable is (pool == "off")
        x = k.arrays["x"].copy()
        with pytest.raises(ValueError, match="read-only"):
            rt.parallel_for(k, schedule="SCHED_DYNAMIC", engine=engine)
        np.testing.assert_array_equal(k.arrays["x"], x)


def test_non_reduction_identity_is_none():
    k = AxpyKernel(10)
    assert k.identity() is None
    assert k.combine(1.0, 2.0) is None


def test_invalid_n_iters():
    with pytest.raises(ValueError):
        AxpyKernel(0)


@pytest.mark.parametrize("name", ["axpy", "sum", "matvec", "matmul", "stencil", "bm"])
def test_all_kernels_have_positive_costs(name):
    k = make_kernel(name, 64)
    assert k.flops_per_iter() >= 0
    assert k.mem_accesses_per_iter() > 0
    assert k.xfer_elems_per_iter() > 0


@pytest.mark.parametrize("name", ["axpy", "sum", "matvec", "matmul", "stencil", "bm"])
def test_map_policies_match_array_rank(name):
    k = make_kernel(name, 64)
    for m in k.maps():
        assert len(m.policies) == k.arrays[m.name].ndim


# -- input_region: the one statement of what a chunk touches of an array -----


def _map(kernel, name):
    return next(m for m in kernel.effective_maps() if m.name == name)


def test_input_region_partitioned_dim0_follows_chunk_grown_by_halo():
    k = make_kernel("stencil", 64)
    u_in = _map(k, "u_in")  # partition([BLOCK],[FULL]) halo(3,3)
    assert u_in.partitioned and u_in.halo == (3, 3)
    assert k.input_region(u_in, IterRange(10, 20)) == (
        IterRange(7, 23),
        IterRange(0, 64),
    )


def test_input_region_clamps_to_array_edges():
    k = make_kernel("stencil", 64)
    u_in = _map(k, "u_in")
    assert k.input_region(u_in, IterRange(0, 5))[0] == IterRange(0, 8)
    assert k.input_region(u_in, IterRange(60, 64))[0] == IterRange(57, 64)


def test_input_region_replicated_map_covers_every_extent():
    k = make_kernel("matvec", 48)
    x = _map(k, "x")  # FULL: every chunk reads the whole vector
    assert not x.partitioned
    assert k.input_region(x, IterRange(3, 4)) == (IterRange(0, 48),)
    a = _map(k, "A")  # BLOCK rows, FULL columns, no halo
    assert k.input_region(a, IterRange(3, 9)) == (IterRange(3, 9), IterRange(0, 48))
