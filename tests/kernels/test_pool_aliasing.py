"""Aliasing safety of the zero-copy input pool.

Pooled kernels share their read-only base arrays and one serial reference
per input set.  Nothing may write a base: not a stream that rewrites its
inputs in place between batches, not concurrent builders, not a run.  And
nothing observable may change: every Fig. 5 cell is pickle- and
byte-identical with pooled inputs, with private writable ones (the pool
"off", as a user's own kernel passes them), and to digests taken at
``01da0b3`` — the last commit whose pool handed out private copies.
"""

import hashlib
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.apps.streaming import (
    OnlineSumKernel,
    SlidingStencilKernel,
    StreamingBlockMatchingKernel,
)
from repro.bench.runner import ALL_POLICIES, run_cell, run_one, verify_result
from repro.errors import OffloadError
from repro.kernels import pool
from repro.kernels.pool import clear_pool, pool_stats
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.runtime.runtime import HompRuntime
from tests.kernels.private_inputs import private_inputs

SEED = 11


@pytest.fixture(autouse=True)
def fresh_pool():
    clear_pool()
    yield
    clear_pool()


def _blake(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _pool_digest() -> dict:
    return {
        (key, name): _blake(arr.tobytes())
        for key, base in pool._BASE.items()
        for name, arr in base.items()
    }


# ------------------------------------------------------- (a) streams


def test_streams_leave_the_pool_bases_untouched():
    plain = {"stencil": 96, "sum": 2000, "bm": 64}
    for name, n in plain.items():
        make_kernel(name, n, seed=SEED)  # the bases the streams start from
    before = _pool_digest()
    assert len(before) == 2 + 1 + 3

    rt = HompRuntime(full_node())
    for kernel in (
        SlidingStencilKernel(96, seed=SEED),
        OnlineSumKernel(2000, seed=SEED),
        StreamingBlockMatchingKernel(64, seed=SEED),
    ):
        sr = rt.stream(kernel, batches=5, window=16, schedule="BLOCK")
        verify_result(kernel, sr.results[-1])
    assert _pool_digest() == before

    for name in ("stencil", "sum"):
        run_one(gpu4_node(), make_kernel(name, plain[name], seed=SEED), "BLOCK")
    assert pool_stats()["misses"] == 3


def test_stream_instances_of_one_seed_do_not_see_each_other():
    k1 = SlidingStencilKernel(96, seed=SEED)
    k2 = SlidingStencilKernel(96, seed=SEED)
    pristine = make_kernel("stencil", 96, seed=SEED).arrays["u_in"]
    assert not np.shares_memory(k1.arrays["u_in"], k2.arrays["u_in"])
    k1.stream_advance(1, 8)
    np.testing.assert_array_equal(k2.arrays["u_in"], pristine)
    k2.stream_advance(2, 8)
    assert not np.array_equal(k1.arrays["u_in"][:8], k2.arrays["u_in"][:8])
    np.testing.assert_array_equal(k1.arrays["u_in"][8:], k2.arrays["u_in"][8:])
    assert not pristine.flags.writeable
    for k in (k1, k2):  # the snapshot reference() reads is the live buffer
        assert k.arrays["u_in"] is k._initial["u_in"]


@pytest.mark.parametrize(
    "cls, plain, n",
    [(SlidingStencilKernel, "stencil", 96), (OnlineSumKernel, "sum", 2000),
     (StreamingBlockMatchingKernel, "bm", 64)],
)
def test_stream_reference_is_recomputed_every_batch(cls, plain, n, monkeypatch):
    calls = []
    original = cls.reference
    monkeypatch.setattr(
        cls, "reference", lambda self: calls.append(1) or original(self)
    )
    make_kernel(plain, n, seed=SEED)  # same input key, pooled
    kernel = cls(n, seed=SEED)
    rt = HompRuntime(gpu4_node())
    for batch in range(4):
        kernel.stream_advance(batch, 16)
        verify_result(kernel, rt.parallel_for(kernel, schedule="BLOCK"))
    assert len(calls) == 4
    assert not pool._REFS  # never memoised, never served a memo


# ------------------------------------------------------- (b) threads


def test_concurrent_builders_share_one_base_and_all_verify():
    """More threads than cores, switching every 10 us: one generation, one
    reference, and no lost update in the hit counter."""

    def build_and_run(_):
        for _ in range(50):
            run_one(gpu4_node(), make_kernel("axpy", 2048, seed=SEED), "BLOCK")
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as workers:
            assert all(workers.map(build_and_run, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert pool_stats() == {"hits": 199, "misses": 1, "entries": 1}
    assert len(pool._REFS) == 1


# ------------------------------------------------- (c) byte identity

#: The grid_fig5 sizes / 8.
SIZES = {
    "axpy": 62_500, "sum": 125_000, "matvec": 125,
    "matmul": 24, "stencil": 32, "bm": 16,
}

#: blake2b-128 over the seven policies' pickled results and written arrays,
#: generated at 01da0b3 (pool handing out private copies of everything).
PINS = {
    "axpy": "331411a742d7b53e328e9dc51d1fae44",
    "sum": "00f1b2c04255df9f2d53f98cd775817f",
    "matvec": "ea13e5a4bc35c9d5f233682600b3b6e8",
    "matmul": "6c6173396b42404836a8455dc58facc4",
    "stencil": "b977c7b1a89fa0a7a61417198080fe75",
    "bm": "98b907609a8b7526049ba9bba6a3f151",
}


class _Keep:
    """A factory that remembers the kernel it built last."""

    def __init__(self, name: str, private: bool):
        self.name = name
        self.private = private

    def __call__(self):
        self.last = make_kernel(self.name, SIZES[self.name], seed=SEED)
        if self.private:
            private_inputs(self.last)
        return self.last


def _cells_digest(name: str, *, private: bool = False) -> str:
    factory = _Keep(name, private)
    chunks = []
    for policy in ALL_POLICIES:
        result = run_cell(gpu4_node(), factory, policy, verify=True)
        chunks.append(pickle.dumps(result, protocol=4))
        chunks += [
            factory.last.arrays[m.name].tobytes()
            for m in factory.last.maps() if m.direction.copies_out
        ]
    return _blake(*chunks)


@pytest.mark.parametrize("name", SIZES)
def test_cells_are_byte_identical_pool_on_off_and_to_the_parent(name):
    assert _cells_digest(name) == PINS[name]
    assert pool_stats()["hits"] == len(ALL_POLICIES) - 1
    clear_pool()
    assert _cells_digest(name, private=True) == PINS[name]
    assert not pool._REFS  # a kernel owning its inputs computes its own


@pytest.mark.parametrize("exact_leg", [True, False], ids=["equal-first", "allclose"])
def test_verify_still_catches_corruption_on_either_leg(exact_leg, monkeypatch):
    if not exact_leg:  # force every comparison through np.allclose
        monkeypatch.setattr(np, "array_equal", lambda a, b: False)
    k = make_kernel("axpy", 500, seed=SEED)
    r = run_one(gpu4_node(), k, "BLOCK", verify=False)
    verify_result(k, r)
    k.arrays["y"][0] *= 1.0 + 1e-13  # not equal, still close: same verdict
    verify_result(k, r)
    k.arrays["y"][0] += 1.0
    with pytest.raises(OffloadError, match="'y' does not match"):
        verify_result(k, r)

    nan = make_kernel("axpy", 500, seed=SEED)
    r = run_one(gpu4_node(), nan, "BLOCK")
    nan.arrays["y"][3] = np.nan
    with pytest.raises(OffloadError, match="'y' does not match"):
        verify_result(nan, r)
    # neither corruption reached the shared reference or the next cell
    run_one(gpu4_node(), make_kernel("axpy", 500, seed=SEED), "BLOCK")
