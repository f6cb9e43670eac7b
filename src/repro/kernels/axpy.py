"""AXPY: ``y[i] += a * x[i]`` — the paper's running example (Figs. 1-2).

Table IV: MemComp 1.5, DataComp 1.5, data-intensive.  Per iteration the
loop does 2 FLOPs (multiply + add), touches 3 elements of memory (load x,
load y, store y) and moves 3 elements over the bus (x in, y in and out):
3/2 = 1.5 on both ratios.
"""

from __future__ import annotations

import numpy as np

from repro.dist.policy import Align
from repro.kernels.base import LoopKernel, MapSpec
from repro.kernels.pool import pooled_inputs
from repro.memory.buffer import DeviceBuffer
from repro.memory.space import MapDirection
from repro.model.roofline import IntensityClass
from repro.util.ranges import IterRange

__all__ = ["AxpyKernel"]


class AxpyKernel(LoopKernel):
    name = "axpy"
    label = "loop"
    table_class = IntensityClass.DATA_INTENSIVE
    span_exact = True  # every output row is computed independently

    def __init__(self, n: int, *, a: float = 2.5, seed: int = 0):
        def _generate() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            return {"x": rng.standard_normal(n), "y": rng.standard_normal(n)}

        self.a = float(a)
        key = ("axpy", n, seed)
        self._ref_key = (*key, self.a)
        super().__init__(n_iters=n, arrays=pooled_inputs(key, _generate))

    def maps(self) -> tuple[MapSpec, ...]:
        return (
            MapSpec("x", MapDirection.TO, (Align(self.label),)),
            MapSpec("y", MapDirection.TOFROM, (Align(self.label),)),
        )

    def flops_per_iter(self) -> float:
        return 2.0

    def mem_accesses_per_iter(self) -> float:
        return 3.0  # load x, load y, store y

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> None:
        x = buffers["x"].local_view(rows)
        y = buffers["y"].local_view(rows)
        y += self.a * x
        return None

    def reference(self) -> dict[str, np.ndarray]:
        return {"y": self._initial["y"] + self.a * self._initial["x"]}
