"""``span_exact`` is a declared property, and the oracle checks every kernel
that declares it.

Span-exact means: computing rows ``[a, c)`` in one ``execute_chunk`` call
leaves the host arrays byte-equal to computing ``[a, b)`` and ``[b, c)``,
in either order.  A virtual-time backend relies on it to run a kernel's
committed chunks as a few merged spans.  Here every declaring kernel runs
a hypothesis-drawn partition of its iteration space chunk by chunk, in
shuffled order, and its arrays must equal one call per merged run of those
chunks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    OnlineSumKernel,
    SlidingStencilKernel,
    StreamingBlockMatchingKernel,
)
from repro.kernels.base import LoopKernel
from repro.kernels.registry import make_kernel
from repro.util.ranges import IterRange

#: Every span-exact kernel, small enough for many examples.
SPAN_EXACT = {
    "axpy": lambda: make_kernel("axpy", 257, seed=4),
    "stencil": lambda: make_kernel("stencil", 29, seed=4),
    "bm": lambda: make_kernel("bm", 23, seed=4),
    "bm-search": lambda: make_kernel("bm", 23, window=3, search=2, seed=4),
    "stream-stencil": lambda: SlidingStencilKernel(27, seed=4),
    "stream-bm": lambda: StreamingBlockMatchingKernel(22, seed=4),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _bytes(kernel) -> dict[str, bytes]:
    return {
        name: np.ascontiguousarray(arr).tobytes()
        for name, arr in sorted(kernel.arrays.items())
    }


@st.composite
def _plan(draw, n: int):
    """A partition of ``[0, n)``, an execution order, and which chunk
    boundaries the merged side keeps."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 12))))
    bounds = [0, *cuts, n]
    chunks = [IterRange(a, b) for a, b in zip(bounds, bounds[1:])]
    order = draw(st.permutations(range(len(chunks))))
    keep = [c for c in cuts if draw(st.booleans())]
    return chunks, order, keep


@pytest.mark.parametrize("name", sorted(SPAN_EXACT))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chunks_in_any_order_equal_one_call_per_merged_run(name, data):
    per_chunk, merged = SPAN_EXACT[name](), SPAN_EXACT[name]()
    assert per_chunk.span_exact and _bytes(per_chunk) == _bytes(merged)
    chunks, order, keep = data.draw(_plan(per_chunk.n_iters))
    for i in order:
        per_chunk.execute_chunk(chunks[i])
    bounds = [0, *keep, merged.n_iters]
    runs = [IterRange(a, b) for a, b in zip(bounds, bounds[1:])]
    for run in reversed(runs):
        merged.execute_chunk(run)
    assert _bytes(per_chunk) == _bytes(merged)
    assert per_chunk.stats.iterations == merged.stats.iterations


def test_the_oracle_covers_every_declaring_kernel():
    tested = {type(factory()) for factory in SPAN_EXACT.values()}
    declaring = {
        c for c in _subclasses(LoopKernel)
        if c.span_exact and c.__module__.startswith("repro.")
    }
    assert declaring == tested


@pytest.mark.parametrize("kernel", [
    make_kernel("matvec", 16), make_kernel("matmul", 8),
    make_kernel("sum", 64), OnlineSumKernel(64),
], ids=lambda k: k.name)
def test_blas_kernels_and_reductions_do_not_declare_it(kernel):
    assert kernel.span_exact is False
