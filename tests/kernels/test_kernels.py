"""Numeric correctness of every kernel through the chunked buffer path,
plus the Table IV ratios each kernel must reproduce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.pool import INPUT_POOL_ENV
from repro.kernels.registry import KERNELS, PAPER_SIZES, make_kernel, paper_workload
from repro.model.roofline import IntensityClass
from repro.util.ranges import IterRange, split_block

SIZES = {"axpy": 500, "sum": 700, "matvec": 48, "matmul": 40, "stencil": 40, "bm": 40}


def tiles(space, size):
    """``space`` in consecutive chunks of ``size`` rows (the last may be short)."""
    return [
        IterRange(s, min(s + size, space.stop))
        for s in range(space.start, space.stop, size)
    ]


def run_chunked(kernel, chunks):
    partial = kernel.identity()
    for c in chunks:
        p = kernel.execute_chunk(c)
        if kernel.is_reduction:
            partial = kernel.combine(partial, p)
    return partial


def check(kernel, reduction):
    ref = kernel.reference()
    if isinstance(ref, dict):
        for name, expected in ref.items():
            if name == "__reduction__":
                assert reduction == pytest.approx(expected)
                continue
            assert np.allclose(kernel.arrays[name], expected), name
    else:
        assert reduction == pytest.approx(ref)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("pooled", [True, False])
def test_single_chunk_matches_reference(name, pooled, monkeypatch):
    """Read-only pooled inputs and private writable ones compute alike."""
    monkeypatch.setenv(INPUT_POOL_ENV, "on" if pooled else "off")
    k = make_kernel(name, SIZES[name], seed=11)
    assert all(v.flags.writeable for v in k.arrays.values()) is not pooled
    red = run_chunked(k, [k.iter_space])
    check(k, red)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("nparts", [2, 3, 7])
def test_block_partitioned_execution_matches_reference(name, nparts):
    k = make_kernel(name, SIZES[name], seed=12)
    red = run_chunked(k, split_block(k.iter_space, nparts))
    check(k, red)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_small_chunk_streaming_matches_reference(name):
    k = make_kernel(name, SIZES[name], seed=13)
    red = run_chunked(k, tiles(k.iter_space, 7))
    check(k, red)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_out_of_order_chunks_match_reference(name):
    k = make_kernel(name, SIZES[name], seed=14)
    chunks = tiles(k.iter_space, 9)
    red = run_chunked(k, list(reversed(chunks)))
    check(k, red)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(KERNELS)),
    data=st.data(),
)
def test_property_any_tiling_matches_reference(name, data):
    """Whatever disjoint tiling of the iteration space a scheduler produces,
    the merged output equals the serial reference."""
    k = make_kernel(name, SIZES[name], seed=15)
    n = k.n_iters
    n_cuts = data.draw(st.integers(0, 6))
    cuts = sorted(
        data.draw(
            st.lists(st.integers(1, n - 1), min_size=n_cuts, max_size=n_cuts)
        )
    )
    bounds = [0] + cuts + [n]
    chunks = [IterRange(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    order = data.draw(st.permutations(chunks))
    red = run_chunked(k, order)
    check(k, red)


class TestTable4Ratios:
    """Computed MemComp/DataComp must match the paper's Table IV formulas."""

    def test_axpy(self):
        k = make_kernel("axpy", 10_000)
        assert k.mem_comp() == pytest.approx(1.5)
        assert k.data_comp() == pytest.approx(1.5)

    def test_sum(self):
        k = make_kernel("sum", 10_000)
        assert k.mem_comp() == pytest.approx(1.0)
        assert k.data_comp() == pytest.approx(1.0)

    def test_matvec(self):
        n = 512
        k = make_kernel("matvec", n)
        assert k.mem_comp() == pytest.approx(1 + 0.5 / n)
        assert k.data_comp() == pytest.approx(0.5 + 1.0 / n)

    def test_matmul(self):
        n = 128
        k = make_kernel("matmul", n)
        assert k.mem_comp() == pytest.approx(1.5 / n)
        assert k.data_comp() == pytest.approx(1.5 / n)

    def test_stencil(self):
        k = make_kernel("stencil", 64)
        assert k.data_comp() == pytest.approx(1.0 / 13.0)
        assert k.mem_comp() == pytest.approx(14.0 / 26.0)

    def test_bm(self):
        k = make_kernel("bm", 64)
        assert k.mem_comp() == pytest.approx(0.5)
        # 3 bus elements per 48 ops = 0.0625, plus the frame rows being
        # slightly wider than the anchor rows; the paper rounds to 0.06
        assert 0.060 <= k.data_comp() <= 0.067

    @pytest.mark.parametrize(
        "name,klass",
        [
            ("axpy", IntensityClass.DATA_INTENSIVE),
            ("sum", IntensityClass.DATA_INTENSIVE),
            ("matvec", IntensityClass.BALANCED),
            ("matmul", IntensityClass.COMPUTE_INTENSIVE),
            ("stencil", IntensityClass.COMPUTE_INTENSIVE),
            ("bm", IntensityClass.COMPUTE_INTENSIVE),
        ],
    )
    def test_intensity_classes_match_evaluation_grouping(self, name, klass):
        k = make_kernel(name, 256)
        assert k.costs().intensity_class(k.n_iters) is klass


class TestRegistry:
    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            make_kernel("fft", 100)

    def test_paper_sizes_present_for_all_kernels(self):
        assert set(PAPER_SIZES) == set(KERNELS)

    def test_paper_workload_scaling(self):
        k = paper_workload("axpy", scale=0.001)
        assert k.n_iters == 10_000

    def test_paper_workload_scale_bounds(self):
        with pytest.raises(ValueError):
            paper_workload("axpy", scale=0.0)
        with pytest.raises(ValueError):
            paper_workload("axpy", scale=1.5)

    def test_scale_floor(self):
        k = paper_workload("stencil", scale=0.001)
        assert k.n_iters >= 16


class TestKernelSpecifics:
    def test_stencil_boundary_rows_copied_through(self):
        k = make_kernel("stencil", 40, seed=3)
        k.execute_chunk(k.iter_space)
        u_in = k._initial["u_in"]
        out = k.arrays["u_out"]
        assert np.array_equal(out[:3], u_in[:3])
        assert np.array_equal(out[-3:], u_in[-3:])
        assert np.array_equal(out[:, :3], u_in[:, :3])

    def test_stencil_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_kernel("stencil", 6)

    def test_bm_search_extension(self):
        from repro.kernels.block_matching import BlockMatchingKernel

        k = BlockMatchingKernel(40, window=4, search=1, seed=3)
        k.execute_chunk(k.iter_space)
        ref = k.reference()["sad"]
        assert np.allclose(k.arrays["sad"], ref)
        # a search never produces a worse SAD than the zero-displacement one
        k0 = BlockMatchingKernel(40, window=4, search=0, seed=3)
        k0.execute_chunk(k0.iter_space)
        # cannot compare directly (different anchor grids); just check scale
        assert np.all(k.arrays["sad"] >= 0)

    def test_bm_parameter_validation(self):
        from repro.kernels.block_matching import BlockMatchingKernel

        with pytest.raises(ValueError):
            BlockMatchingKernel(40, window=0)
        with pytest.raises(ValueError):
            BlockMatchingKernel(40, search=-1)
        with pytest.raises(ValueError):
            BlockMatchingKernel(4, window=4, search=2)

    def test_sum_device_mem_factor_applies_to_execution_only(self):
        k = make_kernel("sum", 1000)
        c = k.chunk_cost(IterRange(0, 100))
        assert c.mem_bytes == 100 * 8 * 4.0  # factor 4
        assert k.mem_comp() == pytest.approx(1.0)  # Table IV unaffected

    def test_matmul_chunk_efficiency_monotone(self):
        k = make_kernel("matmul", 256)
        assert k.chunk_efficiency(8) < k.chunk_efficiency(64) < k.chunk_efficiency(512)
        assert k.chunk_efficiency(10**9) <= 1.0
