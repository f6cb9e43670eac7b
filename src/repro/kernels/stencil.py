"""13-point 2-D star stencil over an NxN grid (Table IV row "Stencil").

A radius-3 star (centre + 3 neighbours in each of the 4 directions = 13
points), iterated over rows with ``collapse``-style flattening.  Per grid
point: 13 fused multiply-adds counted as 26 FLOPs, 13 loads + 1 store = 14
memory accesses (MemComp ~= 0.54, the paper rounds to 0.5), and 2 bus
elements (point in, point out) -> DataComp = 2/26 = 1/13 exactly as in the
table.  Chunks need a 3-row halo of the input, exercising the halo-aware
buffer path; the paper tags this kernel "neighbourhood communication".
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

__all__ = ["Stencil2DKernel", "RADIUS", "WEIGHTS"]

RADIUS = 3
#: centre weight + one weight per ring (applied to all 4 neighbours of a ring)
WEIGHTS = (0.5, 0.08, 0.03, 0.014)


class Stencil2DKernel(LoopKernel):
    name = "stencil"
    label = "loop"
    table_class = IntensityClass.COMPUTE_INTENSIVE
    span_exact = True  # every output row is computed independently

    def __init__(self, n: int, *, seed: int = 0):
        if n <= 2 * RADIUS:
            raise ValueError(f"stencil grid must exceed {2 * RADIUS}, got {n}")
        def _generate() -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            u_in = rng.standard_normal((n, n))
            # boundary rows/cols keep their input values
            return {"u_in": u_in, "u_out": u_in.copy()}

        self.n = n
        self._ref_key = ("stencil", n, seed)
        super().__init__(n_iters=n, arrays=pooled_inputs(self._ref_key, _generate))

    def maps(self) -> tuple[MapSpec, ...]:
        return (
            MapSpec(
                "u_in",
                MapDirection.TO,
                (Align(self.label), Full()),
                halo=(RADIUS, RADIUS),
            ),
            MapSpec("u_out", MapDirection.FROM, (Align(self.label), Full())),
        )

    def flops_per_iter(self) -> float:
        return 26.0 * self.n  # 13 FMAs per point, N points per row

    def mem_accesses_per_iter(self) -> float:
        return 14.0 * self.n  # 13 loads + 1 store per point

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> None:
        src = buffers["u_in"]
        dst = buffers["u_out"]
        # A FROM-mapped output starts uninitialised on a real discrete
        # device; the kernel must define every point of its chunk, so
        # boundary rows/columns are copied through from the input first.
        whole = dst.local_view(rows)
        src_base = rows.start - src.region[0].start
        whole[:, :] = src.data[src_base : src_base + len(rows), :]
        interior = rows.intersect(IterRange(RADIUS, self.n - RADIUS))
        if interior.empty:
            return None
        out = dst.local_view(interior)
        # Local row index of `interior.start` inside the halo-padded buffer.
        base = interior.start - src.region[0].start
        m = len(interior)
        js = slice(RADIUS, self.n - RADIUS)
        centre = src.data[base : base + m, js]
        acc = WEIGHTS[0] * centre
        for k in range(1, RADIUS + 1):
            w = WEIGHTS[k]
            acc = acc + w * (
                src.data[base - k : base - k + m, js]
                + src.data[base + k : base + k + m, js]
                + src.data[base : base + m, RADIUS - k : self.n - RADIUS - k]
                + src.data[base : base + m, RADIUS + k : self.n - RADIUS + k]
            )
        out[:, js] = acc
        return None

    def reference(self) -> dict[str, np.ndarray]:
        u = self._initial["u_in"]
        out = u.copy()
        n = self.n
        js = slice(RADIUS, n - RADIUS)
        i0, i1 = RADIUS, n - RADIUS
        acc = WEIGHTS[0] * u[i0:i1, js]
        for k in range(1, RADIUS + 1):
            w = WEIGHTS[k]
            acc = acc + w * (
                u[i0 - k : i1 - k, js]
                + u[i0 + k : i1 + k, js]
                + u[i0:i1, RADIUS - k : n - RADIUS - k]
                + u[i0:i1, RADIUS + k : n - RADIUS + k]
            )
        out[i0:i1, js] = acc
        return {"u_out": out}
