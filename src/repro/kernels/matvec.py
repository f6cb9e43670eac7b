"""Matrix-vector product: ``y = A @ x`` over rows (Table IV: balanced).

Per row (one iteration, N columns): 2N FLOPs; N loads of A, N loads of x,
one store of y -> MemComp = (2N+1)/2N = 1 + 0.5/N.  Bus traffic per row:
the A row (N, in) plus y (tofrom: 2) -> DataComp = (N+2)/2N = 0.5 + 1/N;
x is FULL-mapped and broadcast once per device, so it amortises out of the
per-iteration ratio exactly as in the paper's table.
"""

from __future__ import annotations

import numpy as np

from repro.dist.policy import Align, Full
from repro.kernels.base import LoopKernel, MapSpec
from repro.kernels.pool import pooled_inputs
from repro.memory.buffer import DeviceBuffer
from repro.memory.space import MapDirection
from repro.model.roofline import IntensityClass
from repro.util.ranges import IterRange

__all__ = ["MatVecKernel"]


class MatVecKernel(LoopKernel):
    name = "matvec"
    label = "loop"
    table_class = IntensityClass.BALANCED

    def __init__(self, n: int, *, seed: int = 0):
        def _generate() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            a, x = rng.standard_normal((n, n)), rng.standard_normal(n)
            return {"A": a, "x": x, "y": np.zeros(n)}

        self.n = n
        self._ref_key = ("matvec", n, seed)
        super().__init__(n_iters=n, arrays=pooled_inputs(self._ref_key, _generate))

    def maps(self) -> tuple[MapSpec, ...]:
        return (
            MapSpec("A", MapDirection.TO, (Align(self.label), Full())),
            MapSpec("x", MapDirection.TO, (Full(),)),
            MapSpec("y", MapDirection.TOFROM, (Align(self.label),)),
        )

    def flops_per_iter(self) -> float:
        return 2.0 * self.n

    def mem_accesses_per_iter(self) -> float:
        return 2.0 * self.n + 1.0  # A row + x + y store

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> None:
        a = buffers["A"].local_view(rows)
        x = buffers["x"].data
        y = buffers["y"].local_view(rows)
        y[:] = a @ x
        return None

    def reference(self) -> dict[str, np.ndarray]:
        return {"y": self._initial["A"] @ self._initial["x"]}
