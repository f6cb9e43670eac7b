"""A chunk's numerics pay for the arithmetic — counted, not timed.

Host-independent budgets for ``LoopKernel.execute_chunk`` (Python-level
calls per warm chunk, builtins included) and the contracts the bound chunk
plan must keep: the memo is filled lazily and dropped by ``set_partition``,
host arrays are read per chunk, and every ``MappingError`` still fires
with its message.
"""

import sys

import numpy as np
import pytest

from repro.errors import MappingError
from repro.kernels.axpy import AxpyKernel
from repro.kernels.registry import make_kernel
from repro.memory.buffer import DeviceBuffer
from repro.util.ranges import IterRange

# ------------------------------------------------- (i) call budget


def _calls_per_chunk(kernel, rows, reps=20) -> float:
    for _ in range(3):  # warm: plan bound
        kernel.execute_chunk(rows)
    calls = -1  # the closing sys.setprofile(None) call

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        for _ in range(reps):
            kernel.execute_chunk(rows)
    finally:
        sys.setprofile(None)
    return calls / reps


#: ``name, n, rows, ceiling``: the ceiling is the count measured on views;
#: the comment gives the count with discrete staging / with a shared view.
#: The axpy row keeps the id of its shared-view row (``shared=True``,
#: ceiling 33): that view path is now every device's path.
_BUDGETS = [
    pytest.param("axpy", 2048, 51, 19, id="axpy-2048-51-True-33"),  # 30 / 22 before
    pytest.param("stencil", 96, 8, 29, id="stencil"),  # 47 / 31 before
    pytest.param("sum", 2000, 200, 14, id="sum"),  # 19 / 15 before
    pytest.param("matvec", 256, 16, 23, id="matvec"),  # 43 / 27 before
    pytest.param("bm", 64, 8, 32, id="bm"),  # 59 / 35 before
]


@pytest.mark.parametrize("name, n, rows, ceiling", _BUDGETS)
def test_execute_chunk_python_call_budget(name, n, rows, ceiling):
    kernel = make_kernel(name, n)
    chunk = IterRange(rows, 2 * rows)
    assert _calls_per_chunk(kernel, chunk) <= ceiling


def test_warm_chunks_never_call_maps():
    class Counting(AxpyKernel):
        calls = 0

        def maps(self):
            Counting.calls += 1
            return super().maps()

    kernel = Counting(2048)
    kernel.execute_chunk(IterRange(0, 51))
    Counting.calls = 0
    for lo in range(0, 2048 - 51, 20):  # 100 chunks
        kernel.execute_chunk(IterRange(lo, lo + 51))
    assert Counting.calls == 0  # once per chunk before


# ------------------------------------------------- (ii) memo contracts


def test_maps_finished_after_construction_are_honoured():
    class LateHalo(AxpyKernel):
        halo = None

        def compute(self, buffers, rows):
            self.regions = {name: buf.region for name, buf in buffers.items()}
            return super().compute(buffers, rows)

        def maps(self):
            maps = super().maps()
            if self.halo is None:  # base-class validation, pre-halo
                return maps
            x, y = maps
            return (type(x)(x.name, x.direction, x.policies, self.halo), y)

    k = LateHalo(100)
    k.halo = (2, 3)
    k.execute_chunk(IterRange(10, 20))
    assert k.regions["x"] == (IterRange(8, 23),)
    assert k.regions["y"] == (IterRange(10, 20),)


def test_every_region_is_input_regions():
    for name, n in [("stencil", 40), ("matvec", 48), ("bm", 24), ("matmul", 16)]:
        kernel = make_kernel(name, n, seed=1)
        seen = {}
        compute = kernel.compute

        def recording(buffers, rows, compute=compute):
            seen.update({b: buf.region for b, buf in buffers.items()})
            return compute(buffers, rows)

        kernel.compute = recording
        maps = kernel.effective_maps()
        for lo, hi in [(0, 1), (0, 5), (3, 9), (kernel.n_iters - 4, kernel.n_iters)]:
            rows = IterRange(lo, hi)
            kernel.execute_chunk(rows)
            for m in maps:
                assert seen[m.name] == kernel.input_region(m, rows), (name, m.name)


def test_rebound_host_array_is_what_the_next_chunk_reads():
    k = make_kernel("axpy", 64, seed=2)
    k.execute_chunk(IterRange(0, 8))
    k.arrays["x"] = np.full(64, 2.0)
    k.arrays["y"] = y = np.zeros(64)
    k.execute_chunk(IterRange(8, 16))
    np.testing.assert_array_equal(y[8:16], k.a * 2.0)
    assert not y[:8].any() and not y[16:].any()


def test_rebound_array_of_another_rank_still_raises():
    k = make_kernel("axpy", 64, seed=2)
    k.execute_chunk(IterRange(0, 8))
    k.arrays["x"] = np.zeros((64, 2))
    with pytest.raises(MappingError, match="rank"):
        k.execute_chunk(IterRange(8, 16))


def test_chunk_outside_the_iteration_space_still_raises():
    k = make_kernel("axpy", 64)
    for start, stop in [(60, 65), (-1, 3)]:
        with pytest.raises(MappingError) as err:
            k.execute_chunk(IterRange(start, stop))
        assert str(err.value) == (
            f"axpy: chunk [{start},{stop}) outside iteration space [0,64)"
        )


def _host():
    return np.arange(40, dtype=float).reshape(8, 5)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: DeviceBuffer("a", _host(), (IterRange(0, 3),), writable=True),
            "buffer 'a': region rank 1 != array rank 2",
        ),
        (
            lambda: DeviceBuffer(
                "a", _host(), (IterRange(0, 99), IterRange(0, 5)), writable=True
            ),
            "buffer 'a': dim 0 range [0,99) outside array extent 8",
        ),
        (
            lambda: DeviceBuffer(
                "a", _host(), (IterRange(0, 2), IterRange(1, 6)), writable=False
            ),
            "buffer 'a': dim 1 range [1,6) outside array extent 5",
        ),
        (
            lambda: DeviceBuffer(
                "a", _host(), (IterRange(2, 6), IterRange(0, 5)), writable=False
            ).local_view(IterRange(0, 3)),
            "buffer 'a': rows [0,3) outside held range [2,6)",
        ),
        (
            lambda: DeviceBuffer(
                "a", _host(), (IterRange(2, 6), IterRange(0, 5)), writable=True
            ).local_view(IterRange(5, 7)),
            "buffer 'a': rows [5,7) outside held range [2,6)",
        ),
    ],
)
def test_every_buffer_mapping_error_keeps_its_message(build, message):
    with pytest.raises(MappingError) as err:
        build()
    assert str(err.value) == message
