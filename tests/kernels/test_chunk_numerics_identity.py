"""How a chunk reaches its data never changes what it computes.

Every registry kernel under every Table II policy on the 4-GPU node (the
Fig. 5 grid at 1/8 of the ``grid_fig5`` benchmark sizes), once with
discrete GPUs and once with the GPUs sharing host memory, plus the three
streaming kernels over 5 batches: the output arrays' bytes and the pickled
results must equal pins generated before the chunk plan was bound, when
every chunk re-derived its regions from the maps and a discrete device's
chunk still computed on staged copies rather than on views of the host
arrays.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import (
    OnlineSumKernel,
    SlidingStencilKernel,
    StreamingBlockMatchingKernel,
)
from repro.bench import ALL_POLICIES
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.machine.interconnect import SHARED_LINK
from repro.machine.spec import MemoryKind
from repro.runtime.runtime import HompRuntime

#: ``grid_fig5`` sizes // 8
SIZES = {
    "axpy": 62_500, "sum": 125_000, "matvec": 125,
    "matmul": 24, "stencil": 32, "bm": 16,
}
STREAMS = {
    "stream-sum": (OnlineSumKernel, 4_000),
    "stream-stencil": (SlidingStencilKernel, 48),
    "stream-bm": (StreamingBlockMatchingKernel, 24),
}


def _machine(shared: bool):
    machine = gpu4_node()
    if not shared:
        return machine
    return replace(
        machine,
        devices=tuple(
            replace(d, memory=MemoryKind.SHARED, link=SHARED_LINK)
            for d in machine.devices
        ),
    )


def _fold(h, kernel, result) -> None:
    for name in sorted(kernel.arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(kernel.arrays[name]).tobytes())
    h.update(pickle.dumps(result, protocol=4))


def grid_digest(kernel_name: str, shared: bool) -> str:
    """One kernel under all seven policies, folded into one checksum."""
    h = hashlib.blake2b(digest_size=16)
    for policy in ALL_POLICIES:
        kernel = make_kernel(kernel_name, SIZES[kernel_name], seed=3)
        rt = HompRuntime(_machine(shared), seed=0)
        _fold(h, kernel, rt.parallel_for(kernel, schedule=policy))
    return h.hexdigest()


def stream_digest(kernel_name: str, shared: bool) -> str:
    factory, n = STREAMS[kernel_name]
    kernel = factory(n, seed=3)
    rt = HompRuntime(_machine(shared), seed=0)
    h = hashlib.blake2b(digest_size=16)
    _fold(h, kernel, rt.stream(kernel, batches=5, window=8, schedule="BLOCK"))
    return h.hexdigest()


#: Generated at 904fdbf, before the chunk plan was bound.
GRID_PINS: dict[tuple[str, bool], str] = {
    ("axpy", False): "058e70ca724243ae05ab6f531920d2d5",
    ("axpy", True): "2e56111ccc97a9fbb781b0a7f7e96972",
    ("sum", False): "02a840e89cfe6c2f198e78b082179cea",
    ("sum", True): "e1ed0f259333e14ca2b0f21e475e7fa6",
    ("matvec", False): "2171ed8eafd307868f21ec50ca6ef739",
    ("matvec", True): "b52f6a2ee1693073576e7094c5c4436f",
    ("matmul", False): "be662345286b245592e06bea65297c49",
    ("matmul", True): "f7c288f57bb05764f6e9b88b94cda96c",
    ("stencil", False): "1d318228a45fdb2b04527b9506a87509",
    ("stencil", True): "25a23cbd5301225e19008077da3776ea",
    ("bm", False): "8e13bc405c25e027871cba39f7f73274",
    ("bm", True): "1dcff13a7b59a912901c56e513401895",
}
STREAM_PINS: dict[tuple[str, bool], str] = {
    ("stream-sum", False): "4c2a68d389458a16b5919886bcea203e",
    ("stream-sum", True): "44a536ee07abcf14cad251156dd288c0",
    ("stream-stencil", False): "3af553aecd3a8806fa6b1e2ccddb6682",
    ("stream-stencil", True): "e65c51081cc067bc7bf364b5099b0c8b",
    ("stream-bm", False): "4333b112d2dc4d75adffbcdd91620d0d",
    ("stream-bm", True): "3561a39388634efe6096bb84a767c26c",
}


@pytest.mark.parametrize("shared", [False, True], ids=["discrete", "shared"])
@pytest.mark.parametrize("kernel_name", list(SIZES))
def test_grid_outputs_and_results_equal_the_pins(kernel_name, shared):
    assert grid_digest(kernel_name, shared) == GRID_PINS[kernel_name, shared]


@pytest.mark.parametrize("shared", [False, True], ids=["discrete", "shared"])
@pytest.mark.parametrize("kernel_name", list(STREAMS))
def test_stream_outputs_and_results_equal_the_pins(kernel_name, shared):
    assert stream_digest(kernel_name, shared) == STREAM_PINS[kernel_name, shared]
