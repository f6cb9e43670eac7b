"""Hot-path caching in LoopKernel: per-kernel cost constants (no map scan
per chunk_cost call), the memoised chunk plan, and the shared input pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist.policy import Block, Full
from repro.kernels.axpy import AxpyKernel
from repro.kernels.matvec import MatVecKernel
from repro.kernels.pool import clear_pool, pool_stats, pooled_inputs
from repro.kernels.registry import make_kernel
from repro.machine.presets import cpu_spec, gpu4_node, homogeneous_node
from repro.runtime.runtime import HompRuntime
from repro.util.ranges import IterRange


# ------------------------------------------------- cost-constant cache


def _count_map_scans(kernel, fn):
    """How many times ``fn`` walks the kernel's effective maps."""
    calls = 0
    original = kernel.effective_maps

    def counting():
        nonlocal calls
        calls += 1
        return original()

    kernel.effective_maps = counting
    try:
        fn()
    finally:
        del kernel.effective_maps
    return calls


def test_chunk_cost_scan_count_independent_of_call_count():
    """Map scans are a per-rebuild constant, not once per chunk_cost call."""
    k = MatVecKernel(64)
    many = _count_map_scans(
        k, lambda: [k.chunk_cost(IterRange(0, 8)) for _ in range(1000)]
    )
    assert many <= 4  # one cache rebuild (in/out/replicated), not per call


def test_chunk_cost_scan_amortised_after_warmup():
    k = AxpyKernel(500)
    k.chunk_cost(IterRange(0, 10))  # warm the constant cache
    assert _count_map_scans(
        k, lambda: [k.chunk_cost(IterRange(0, 10)) for _ in range(100)]
    ) == 0


def test_set_partition_invalidates_cost_cache():
    k = AxpyKernel(500)
    k.chunk_cost(IterRange(0, 10))  # warm
    k.set_partition("x", Block())
    # a fresh scan must happen to pick up the override
    assert _count_map_scans(k, lambda: k.chunk_cost(IterRange(0, 10))) >= 1


def test_set_partition_invalidates_memoised_maps_and_chunk_plan():
    staged = {}

    class Recording(MatVecKernel):
        def compute(self, buffers, rows):  # stages only: a BLOCK x no longer fits A @ x
            staged.update({n: b.region for n, b in buffers.items()})

    k = Recording(64)
    maps = k.effective_maps()
    assert k.effective_maps() is maps  # memoised
    k.execute_chunk(IterRange(8, 16))
    assert staged["x"] == (IterRange(0, 64),)  # FULL: the whole vector
    k.set_partition("x", Block())
    after = k.effective_maps()
    assert after is not maps and k.effective_maps() is after
    assert not isinstance(after[1].policies[0], Full)
    k.execute_chunk(IterRange(8, 16))
    assert staged["x"] == (IterRange(8, 16),)  # the new, partitioned region


def test_replicated_in_bytes_served_from_cache():
    k = MatVecKernel(64)
    assert k.replicated_in_bytes() == 64 * 8  # warms the cache
    assert _count_map_scans(k, k.replicated_in_bytes) == 0


# ------------------------------------------------- chunked numerics


def test_discrete_staging_output_identical_to_fresh_buffers():
    """A pass over outputs that a preceding pass already wrote equals a
    fresh run: no chunk reads stale output bytes."""
    a = make_kernel("matmul", 24, seed=3)
    b = make_kernel("matmul", 24, seed=3)
    b.execute_chunk(IterRange(0, 24))
    b.arrays["C"][:] = 0.0
    for lo in range(0, 24, 6):
        a.execute_chunk(IterRange(lo, lo + 6))
        b.execute_chunk(IterRange(lo, lo + 6))
    np.testing.assert_array_equal(a.arrays["C"], b.arrays["C"])


def test_shared_and_discrete_paths_agree():
    """A node whose devices share host memory and one with discrete GPUs
    compute the same bytes."""
    out = []
    for machine in (homogeneous_node(2, cpu_spec()), gpu4_node()):
        k = make_kernel("stencil", 48, seed=1)
        HompRuntime(machine).parallel_for(k, schedule="SCHED_DYNAMIC")
        out.append(k.arrays["u_out"].tobytes())
    assert out[0] == out[1]


# -------------------------------------------------------- input pool


@pytest.fixture(autouse=True)
def fresh_pool():
    clear_pool()
    yield
    clear_pool()


def test_pooled_kernels_share_one_generation():
    make_kernel("matvec", 64, seed=7)
    stats = pool_stats()
    assert stats["misses"] == 1
    make_kernel("matvec", 64, seed=7)
    stats = pool_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_pooled_copies_are_independent():
    """Written arrays are private per kernel; pure inputs are one shared,
    read-only array, so a buggy writer fails loudly instead of corrupting
    a later cell."""
    k1 = make_kernel("axpy", 200, seed=5)
    k2 = make_kernel("axpy", 200, seed=5)
    base = pooled_inputs(("axpy", 200, 5), dict)  # a hit: the bases themselves
    pristine = base["y"].copy()
    k1.arrays["y"][:] = -1.0
    for untouched in (k2.arrays["y"], k2._initial["y"], base["y"]):
        np.testing.assert_array_equal(untouched, pristine)
    assert np.shares_memory(k1.arrays["x"], k2.arrays["x"])
    assert not np.shares_memory(k1.arrays["y"], k2.arrays["y"])
    assert k1._initial["y"] is base["y"]  # the snapshot is the base: no 2nd copy
    with pytest.raises(ValueError):
        k1.arrays["x"][0] = 0.0
    with pytest.raises(ValueError):
        k1._initial["y"][0] = 0.0


def test_pooled_inputs_match_direct_generation():
    """The pool hands out exactly what its generator made, bit for bit, as
    read-only bases shared by every caller of the key."""
    base = pooled_inputs(
        ("probe", 1), lambda: {"z": np.random.default_rng(0).random(4)}
    )
    again = pooled_inputs(("probe", 1), dict)
    assert again["z"] is base["z"] and not base["z"].flags.writeable
    np.testing.assert_array_equal(base["z"], np.random.default_rng(0).random(4))


def test_pool_key_includes_size_and_seed():
    make_kernel("axpy", 100, seed=0)
    make_kernel("axpy", 100, seed=1)
    make_kernel("axpy", 200, seed=0)
    assert pool_stats()["misses"] == 3
