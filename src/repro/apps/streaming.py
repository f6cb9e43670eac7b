"""Streaming workloads: kernels with a host-side batch advance hook.

Three applications exercising the stream runtime
(:mod:`repro.runtime.stream`), each an existing Table IV kernel plus the
``stream_advance(batch, window)`` protocol the runner calls between
batches: the hook writes the batch's *new* data into the host arrays and
returns the dirty dim-0 row ranges per array, which the runner
invalidates on every region device so the next batch re-stages exactly
the sliding-window delta.

All advances are deterministic functions of ``(seed, batch)`` alone —
never of the schedule or the device split — so two streams of the same
workload under different schedulers see bit-identical inputs batch for
batch, and their outputs (elementwise kernels) and reductions
(integer-valued data, exact float addition) must match exactly.  That is
the cross-scheduler checksum contract the stream benchmarks pin.

* :class:`SlidingStencilKernel` — the radius-3 star stencil over a grid
  whose leading ``window`` rows are fresh sensor rows each batch.
* :class:`OnlineSumKernel` — running sum over a ring buffer receiving
  ``window`` new samples per batch; values are integer-valued floats so
  per-device partial sums combine exactly in any order.
* :class:`StreamingBlockMatchingKernel` — block matching of a reference
  frame against a video feed whose newest ``window`` rows change per
  batch.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.block_matching import BlockMatchingKernel
from repro.kernels.stencil import Stencil2DKernel
from repro.kernels.sumreduce import SumKernel
from repro.util.ranges import IterRange

__all__ = [
    "SlidingStencilKernel",
    "OnlineSumKernel",
    "StreamingBlockMatchingKernel",
]


def _batch_rng(seed: int, batch: int, salt: int) -> np.random.Generator:
    """Deterministic per-(stream, batch) RNG, independent of schedule."""
    return np.random.default_rng(((seed + 1) * salt + batch) % (2**63))


def _own(kernel, name: str) -> None:
    """A private writable copy of the pooled input the advance hook rewrites
    in place; the pristine snapshot stays that same object, so ``reference()``
    reads the live data and is never served from the pool's memo."""
    kernel.arrays[name] = kernel._initial[name] = kernel.arrays[name].copy()


class SlidingStencilKernel(Stencil2DKernel):
    """Stencil over a grid whose leading rows are refreshed every batch."""

    name = "stream-stencil"

    def __init__(self, n: int, *, seed: int = 0):
        super().__init__(n, seed=seed)
        _own(self, "u_in")
        self._stream_seed = seed

    def stream_advance(self, batch: int, window: int) -> dict:
        rows = min(window, self.n)
        if rows <= 0:
            return {}
        rng = _batch_rng(self._stream_seed, batch, 1_000_003)
        self.arrays["u_in"][:rows, :] = rng.standard_normal((rows, self.n))
        return {"u_in": IterRange(0, rows)}

    def checksum(self) -> float:
        return float(self.arrays["u_out"].sum())


class OnlineSumKernel(SumKernel):
    """Running sum over a ring buffer of integer-valued samples.

    Values are drawn as integers and stored as floats: every partial sum
    is exactly representable, so the combined reduction is bit-identical
    no matter how the iteration space was split — the property that lets
    the benchmarks compare reductions across schedulers exactly.
    """

    name = "stream-sum"

    def __init__(self, n: int, *, seed: int = 0):
        super().__init__(n, seed=seed)
        _own(self, "x")
        self._stream_seed = seed
        rng = _batch_rng(seed, 0, 611_953)
        self.arrays["x"][:] = rng.integers(-1000, 1000, n).astype(np.float64)

    def stream_advance(self, batch: int, window: int) -> dict:
        w = min(window, self.n_iters)
        if w <= 0:
            return {}
        rng = _batch_rng(self._stream_seed, batch, 9_999_991)
        self.arrays["x"][:w] = rng.integers(-1000, 1000, w).astype(np.float64)
        return {"x": IterRange(0, w)}


class StreamingBlockMatchingKernel(BlockMatchingKernel):
    """Block matching of a fixed reference frame against a live feed."""

    name = "stream-bm"

    def __init__(self, n: int, *, window: int = 4, search: int = 0, seed: int = 0):
        super().__init__(n, window=window, search=search, seed=seed)
        _own(self, "frame2")
        self._stream_seed = seed

    def stream_advance(self, batch: int, window: int) -> dict:
        rows = min(window, self.n)
        if rows <= 0:
            return {}
        rng = _batch_rng(self._stream_seed, batch, 7_368_787)
        self.arrays["frame2"][:rows, :] = rng.random((rows, self.n))
        return {"frame2": IterRange(0, rows)}

    def checksum(self) -> float:
        return float(self.arrays["sad"].sum())
