"""Matrix multiplication: ``C = A @ B`` over rows (Table IV: compute-intensive).

Per row (one iteration, 2N^2 FLOPs) the idealised streaming counts are
N loads of A's row, N amortised loads of B (N^2 total over N iterations),
N stores of C's row: MemComp = 3N / 2N^2 = 1.5/N.  Bus traffic counts all
three matrices once — A and C rows per iteration plus B broadcast, also
amortised: DataComp = 3N / 2N^2 = 1.5/N, matching the paper's table.
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

__all__ = ["MatMulKernel"]


class MatMulKernel(LoopKernel):
    name = "matmul"
    label = "loop"
    table_class = IntensityClass.COMPUTE_INTENSIVE

    def __init__(self, n: int, *, seed: int = 0):
        def _generate() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            return {"A": a, "B": b, "C": np.zeros((n, n))}

        self.n = n
        self._ref_key = ("matmul", n, seed)
        super().__init__(n_iters=n, arrays=pooled_inputs(self._ref_key, _generate))

    def maps(self) -> tuple[MapSpec, ...]:
        return (
            MapSpec("A", MapDirection.TO, (Align(self.label), Full())),
            MapSpec("B", MapDirection.TO, (Full(), Full())),
            MapSpec("C", MapDirection.FROM, (Align(self.label), Full())),
        )

    def flops_per_iter(self) -> float:
        return 2.0 * self.n * self.n

    def chunk_efficiency(self, n: int) -> float:
        # GEMM needs a deep row-block to reach sustained rate: small chunks
        # under-fill the device (half-efficiency point at 64 rows).
        return n / (n + 64.0)

    def mem_accesses_per_iter(self) -> float:
        # A row (N) + B amortised (N^2 over N iters) + C row (N).
        return 3.0 * self.n

    def xfer_elems_per_iter(self) -> float:
        # The paper's DataComp counts the broadcast B once, amortised over
        # the loop (A + B + C = 3N^2 elements for 2N^3 ops -> 1.5/N).  The
        # per-chunk simulation charges B separately (replicated_in_bytes);
        # this override only affects the Table IV ratio.
        return super().xfer_elems_per_iter() + float(self.n)

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> None:
        a = buffers["A"].local_view(rows)
        b = buffers["B"].data
        c = buffers["C"].local_view(rows)
        c[:] = a @ b
        return None

    def reference(self) -> dict[str, np.ndarray]:
        return {"C": self._initial["A"] @ self._initial["B"]}
