"""Sum: ``s = sum(x[i])`` — data-intensive reduction (Table IV: 1 / 1).

Per iteration: 1 FLOP (add), 1 memory load, 1 element over the bus.  Each
device produces a partial sum; the runtime combines partials on the host,
mirroring OpenMP's ``reduction(+:s)`` across devices.
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

__all__ = ["SumKernel"]


class SumKernel(LoopKernel):
    name = "sum"
    label = "loop"
    table_class = IntensityClass.DATA_INTENSIVE
    # Atomics/multi-pass reductions on Kepler-generation devices run well
    # below streaming bandwidth; the Table IV accounting stays at 1 access
    # per iteration, but execution pays ~4x that traffic.
    device_mem_factor = 4.0

    def __init__(self, n: int, *, seed: int = 0):
        def _generate() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            return {"x": rng.standard_normal(n)}

        self._ref_key = ("sum", n, seed)
        super().__init__(n_iters=n, arrays=pooled_inputs(self._ref_key, _generate))

    def maps(self) -> tuple[MapSpec, ...]:
        return (MapSpec("x", MapDirection.TO, (Align(self.label),)),)

    @property
    def is_reduction(self) -> bool:
        return True

    def flops_per_iter(self) -> float:
        return 1.0

    def mem_accesses_per_iter(self) -> float:
        return 1.0

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> float:
        return float(buffers["x"].local_view(rows).sum())

    def reference(self) -> float:
        return float(self._initial["x"].sum())
