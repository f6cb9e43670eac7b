"""BLAS-style multi-offload workflows (the paper's §V.C "BLAS examples").

Patterns the single-loop benchmarks do not cover: several dependent loops
over the same arrays.  :func:`two_kernel_chain` is a matvec followed by an
axpy that the IR fuses into one data environment; :class:`PowerIteration`
runs three loops per sweep over one matrix inside a target-data region, so
the matrix pays the PCIe bus once instead of per sweep — the measurable
benefit of the paper's ``target data`` construct, asserted by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.policy import Align, Full
from repro.kernels.base import LoopKernel, MapSpec
from repro.memory.buffer import DeviceBuffer
from repro.memory.space import MapDirection
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.runtime import HompRuntime
from repro.util.ranges import IterRange

__all__ = [
    "PowerIteration",
    "PowerIterationResult",
    "two_kernel_chain",
]


class _ChainMatVec(LoopKernel):
    name = "chain-matvec"
    label = "loop"

    def __init__(self, a, x, y):
        self.n = a.shape[0]
        super().__init__(n_iters=self.n, arrays={"A": a, "x": x, "y": y})

    def maps(self):
        return (
            MapSpec("A", MapDirection.TO, (Align(self.label), Full())),
            MapSpec("x", MapDirection.TO, (Full(),)),
            MapSpec("y", MapDirection.FROM, (Align(self.label),)),
        )

    def flops_per_iter(self):
        return 2.0 * self.arrays["A"].shape[1]

    def mem_accesses_per_iter(self):
        return 2.0 * self.arrays["A"].shape[1] + 1.0

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange):
        buffers["y"].local_view(rows)[:] = (
            buffers["A"].local_view(rows) @ buffers["x"].data
        )
        return None

    def reference(self):
        return {"y": self._initial["A"] @ self._initial["x"]}


class _ChainAxpy(LoopKernel):
    name = "chain-axpy"
    label = "loop"

    def __init__(self, x, y, alpha):
        self.alpha = float(alpha)
        super().__init__(n_iters=len(y), arrays={"x": x, "y": y})

    def maps(self):
        return (
            MapSpec("x", MapDirection.TO, (Align(self.label),)),
            MapSpec("y", MapDirection.TOFROM, (Align(self.label),)),
        )

    def flops_per_iter(self):
        return 2.0

    def mem_accesses_per_iter(self):
        return 3.0

    def compute(self, buffers, rows):
        buffers["y"].local_view(rows)[:] += self.alpha * buffers["x"].local_view(rows)
        return None

    def reference(self):
        return {"y": self._initial["y"] + self.alpha * self._initial["x"]}


def two_kernel_chain(
    n: int, *, alpha: float = 0.5, seed: int = 0
) -> tuple[list[tuple[str, LoopKernel]], dict[str, np.ndarray]]:
    """A two-offload (directive, kernel) chain sharing ``x`` and ``y``.

    The matvec writes ``y = A @ x``; the axpy then updates
    ``y += alpha * x`` in place.  Both kernels bind the *same* host
    arrays, so lowering the pair through
    :func:`repro.ir.lower.from_directives` and running the
    ``fuse-adjacent-offloads`` pass yields one fused data environment in
    which ``x`` crosses the bus once and the intermediate ``y`` never
    round-trips — the ledger's ``bytes_elided`` makes that measurable.

    Returns the ordered (directive, kernel) pairs and the reference
    result ``{"y": A @ x + alpha * x}``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    y = np.zeros(n)
    directive = "#pragma omp parallel target device(*)"
    pairs = [
        (directive, _ChainMatVec(a, x, y)),
        (directive, _ChainAxpy(x, y, alpha)),
    ]
    reference = {"y": a @ x + float(alpha) * x}
    return pairs, reference


class _ChainSquareSum(LoopKernel):
    name = "chain-nrm2"
    label = "loop"
    device_mem_factor = 4.0

    def __init__(self, y):
        super().__init__(n_iters=len(y), arrays={"y": y})

    def maps(self):
        return (MapSpec("y", MapDirection.TO, (Align(self.label),)),)

    @property
    def is_reduction(self):
        return True

    def flops_per_iter(self):
        return 2.0

    def mem_accesses_per_iter(self):
        return 1.0

    def compute(self, buffers, rows):
        v = buffers["y"].local_view(rows)
        return float((v * v).sum())

    def reference(self):
        y = self._initial["y"]
        return float((y * y).sum())


class _ChainScale(LoopKernel):
    """``x = c * y`` — the normalisation step of power iteration."""

    name = "chain-scale"
    label = "loop"

    def __init__(self, y, x, c: float):
        self.c = float(c)
        super().__init__(n_iters=len(y), arrays={"y": y, "x": x})

    def maps(self):
        return (
            MapSpec("y", MapDirection.TO, (Align(self.label),)),
            MapSpec("x", MapDirection.FROM, (Align(self.label),)),
        )

    def flops_per_iter(self):
        return 1.0

    def mem_accesses_per_iter(self):
        return 2.0

    def compute(self, buffers, rows):
        buffers["x"].local_view(rows)[:] = self.c * buffers["y"].local_view(rows)
        return None

    def reference(self):
        return {"x": self.c * self._initial["y"]}


@dataclass
class PowerIterationResult:
    """Outcome of a distributed power iteration."""

    eigenvalue: float
    x: np.ndarray
    sim_time_s: float
    iterations: int


class PowerIteration:
    """Dominant-eigenvector iteration: the canonical reused-operator chain.

    Each sweep runs three distributed loops — ``y = A @ x``,
    ``s = sum(y*y)``, ``x = y / sqrt(s)`` — over the *same* matrix ``A``.
    Inside a target-data region ``A`` crosses the bus once for the whole
    solve; without it, every sweep re-transfers the matrix.  This is the
    workload where the paper's ``target data`` construct pays for itself
    (as it does in its Fig. 3 Jacobi).
    """

    def __init__(self, n: int, *, seed: int = 0):
        if n < 2:
            raise ValueError("n must be >= 2")
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, n))
        self.a = (base + base.T) / 2.0  # symmetric: real spectrum
        self.n = n
        self.x = np.ones(n) / np.sqrt(n)
        self.y = np.zeros(n)

    def run(
        self,
        runtime: HompRuntime,
        *,
        iters: int = 10,
        devices=None,
        schedule="AUTO",
        use_data_region: bool = True,
    ) -> PowerIterationResult:
        total = 0.0
        eig = 0.0

        def sweep(offload) -> float:
            nonlocal eig
            r1 = offload(_ChainMatVec(self.a, self.x, self.y))
            r2 = offload(_ChainSquareSum(self.y))
            nrm = float(np.sqrt(r2.reduction))
            eig = nrm  # |y| = |A x| -> dominant |eigenvalue| at convergence
            r3 = offload(_ChainScale(self.y, self.x, 1.0 / nrm))
            return r1.total_time_s + r2.total_time_s + r3.total_time_s

        if use_data_region:
            region = TargetDataRegion(
                runtime=runtime,
                maps={
                    "A": (self.a, MapDirection.TO),
                    "x": (self.x, MapDirection.TOFROM),
                    "y": (self.y, MapDirection.ALLOC),
                },
                devices=devices,
                partitioned=frozenset({"A", "y"}),
            )
            with region:
                for _ in range(iters):
                    sweep(lambda k: region.parallel_for(k, schedule=schedule))
            total = region.total_time_s
        else:
            for _ in range(iters):
                total += sweep(
                    lambda k: runtime.parallel_for(
                        k, schedule=schedule, devices=devices
                    )
                )
        return PowerIterationResult(
            eigenvalue=eig, x=self.x, sim_time_s=total, iterations=iters
        )

    def reference(self, *, iters: int = 10) -> tuple[float, np.ndarray]:
        x = np.ones(self.n) / np.sqrt(self.n)
        nrm = 0.0
        for _ in range(iters):
            y = self.a @ x
            nrm = float(np.linalg.norm(y))
            x = y / nrm
        return nrm, x
