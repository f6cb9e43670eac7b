"""The Jacobi iterative kernel of paper Fig. 3, end to end.

Demonstrates everything the figure's directives use together:

* a ``parallel target data`` region mapping ``f``, ``u`` (tofrom) and
  ``uold`` (alloc) once for the whole solve
  (:class:`~repro.runtime.data_env.TargetDataRegion`),
* two distributed loops per iteration — the copy loop ``uold = u``
  (``dist_schedule(target:[ALIGN(loop1)])``) and the sweep with a
  ``reduction(+:error)`` (``dist_schedule(target:[AUTO])``),
* a ``halo_exchange(uold)`` between them
  (:func:`~repro.runtime.halo.plan_halo_op`).

The solve iterates ``u`` toward the solution of the discrete Poisson-like
system ``ax*(u[i-1,j]+u[i+1,j]) + ay*(u[i,j-1]+u[i,j+1]) + b*u[i,j] =
f[i,j]`` with relaxation ``omega``.  :meth:`JacobiSolver.reference` runs
the same iteration serially for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dist.policy import Align, Block, Full
from repro.ir.ops import HaloOp
from repro.kernels.base import LoopKernel, MapSpec
from repro.memory.buffer import DeviceBuffer
from repro.memory.space import MapDirection
from repro.runtime.data_env import TargetDataRegion
from repro.runtime.halo import plan_halo_op
from repro.runtime.runtime import HompRuntime
from repro.util.ranges import IterRange

__all__ = ["JacobiCopyKernel", "JacobiSweepKernel", "JacobiSolver", "JacobiResult"]


class JacobiCopyKernel(LoopKernel):
    """Fig. 3 loop 1: ``uold[i][j] = u[i][j]`` over rows."""

    name = "jacobi-copy"
    label = "loop1"

    def __init__(self, u: np.ndarray, uold: np.ndarray):
        if u.shape != uold.shape or u.ndim != 2:
            raise ValueError("u and uold must be 2-D arrays of equal shape")
        self.m = u.shape[1]
        super().__init__(n_iters=u.shape[0], arrays={"u": u, "uold": uold})

    def maps(self) -> tuple[MapSpec, ...]:
        return (
            MapSpec("u", MapDirection.TO, (Align(self.label), Full())),
            MapSpec("uold", MapDirection.FROM, (Align(self.label), Full())),
        )

    def flops_per_iter(self) -> float:
        return 0.0  # pure copy: memory-bound by construction

    def mem_accesses_per_iter(self) -> float:
        return 2.0 * self.m  # read u row, write uold row

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> None:
        buffers["uold"].local_view(rows)[:] = buffers["u"].local_view(rows)
        return None

    def reference(self) -> dict[str, np.ndarray]:
        return {"uold": self._initial["u"].copy()}


class JacobiSweepKernel(LoopKernel):
    """Fig. 3 loop1 (the sweep): 5-point relaxation with error reduction."""

    name = "jacobi-sweep"
    label = "loop1"

    def __init__(
        self,
        u: np.ndarray,
        uold: np.ndarray,
        f: np.ndarray,
        *,
        ax: float,
        ay: float,
        b: float,
        omega: float,
    ):
        if not (u.shape == uold.shape == f.shape) or u.ndim != 2:
            raise ValueError("u, uold, f must be 2-D arrays of equal shape")
        self.m = u.shape[1]
        self.ax, self.ay, self.b, self.omega = float(ax), float(ay), float(b), float(omega)
        super().__init__(
            n_iters=u.shape[0], arrays={"u": u, "uold": uold, "f": f}
        )

    def maps(self) -> tuple[MapSpec, ...]:
        return (
            MapSpec("uold", MapDirection.TO, (Align(self.label), Full()), halo=(1, 1)),
            MapSpec("f", MapDirection.TO, (Align(self.label), Full())),
            MapSpec("u", MapDirection.TOFROM, (Align(self.label), Full())),
        )

    @property
    def is_reduction(self) -> bool:
        return True

    def flops_per_iter(self) -> float:
        return 13.0 * self.m  # 5-point update + residual accumulation per point

    def mem_accesses_per_iter(self) -> float:
        return 7.0 * self.m  # 5 uold loads, f load, u store

    def compute(self, buffers: dict[str, DeviceBuffer], rows: IterRange) -> float:
        n = self.n_iters
        interior = rows.intersect(IterRange(1, n - 1))
        if interior.empty:
            return 0.0
        uold = buffers["uold"]
        base = interior.start - uold.region[0].start
        k = len(interior)
        js = slice(1, self.m - 1)
        centre = uold.data[base : base + k, js]
        resid = (
            self.ax
            * (uold.data[base - 1 : base - 1 + k, js] + uold.data[base + 1 : base + 1 + k, js])
            + self.ay
            * (uold.data[base : base + k, 0 : self.m - 2] + uold.data[base : base + k, 2 : self.m])
            + self.b * centre
            - buffers["f"].local_view(interior)[:, js]
        ) / self.b
        u = buffers["u"].local_view(interior)
        u[:, js] = centre - self.omega * resid
        return float((resid * resid).sum())

    def reference(self) -> float | dict[str, np.ndarray]:
        u0, uold, f = self._initial["u"], self._initial["uold"], self._initial["f"]
        u = u0.copy()
        js = slice(1, self.m - 1)
        resid = (
            self.ax * (uold[:-2, js] + uold[2:, js])
            + self.ay * (uold[1:-1, 0 : self.m - 2] + uold[1:-1, 2 : self.m])
            + self.b * uold[1:-1, js]
            - f[1:-1, js]
        ) / self.b
        u[1:-1, js] = uold[1:-1, js] - self.omega * resid
        return {"u": u, "__reduction__": float((resid * resid).sum())}


@dataclass
class JacobiResult:
    """Outcome of a distributed Jacobi solve."""

    iterations: int
    final_error: float
    sim_time_s: float
    halo_time_s: float
    u: np.ndarray
    per_loop_results: list = field(default_factory=list)


class JacobiSolver:
    """Distributed Jacobi relaxation on an ``n x m`` grid (paper Fig. 3)."""

    def __init__(self, n: int, m: int | None = None, *, seed: int = 0):
        m = m or n
        if n < 3 or m < 3:
            raise ValueError("grid must be at least 3x3")
        rng = np.random.default_rng(seed)
        self.n, self.m = n, m
        self.u = np.zeros((n, m))
        self.uold = np.zeros((n, m))
        self.f = rng.standard_normal((n, m))
        # Standard Jacobi coefficients for a unit-square Poisson problem.
        dx, dy = 1.0 / (n - 1), 1.0 / (m - 1)
        self.ax, self.ay = 1.0 / (dx * dx), 1.0 / (dy * dy)
        self.b = -2.0 / (dx * dx) - 2.0 / (dy * dy) - 1.0
        self.omega = 0.8

    def solve(
        self,
        runtime: HompRuntime,
        *,
        devices=None,
        schedule="AUTO",
        max_iters: int = 100,
        tol: float = 1e-8,
    ) -> JacobiResult:
        """Run the distributed solve, accounting mapping + halo costs."""
        region = TargetDataRegion(
            runtime=runtime,
            maps={
                "f": (self.f, MapDirection.TO),
                "u": (self.u, MapDirection.TOFROM),
                "uold": (self.uold, MapDirection.ALLOC),
            },
            devices=devices,
            partitioned=frozenset({"f", "u", "uold"}),
        )
        halo_total = 0.0
        error = float("inf")
        iters = 0
        loop_results = []
        with region:
            submachine = runtime.machine.subset(region._ids)
            row_dist = region.plan.placements["uold"]
            halo = HaloOp("uold", lower=1, upper=1, row_bytes=self.m * 8)
            while iters < max_iters and error > tol:
                copy_k = JacobiCopyKernel(self.u, self.uold)
                # v1-style alignment: BLOCK-partition the data, align the
                # copy loop with u's distribution (Fig. 3's ALIGN(loop1)).
                copy_k.set_partition("u", Block())
                copy_k.set_partition("uold", Block())
                r1 = region.parallel_for(copy_k, schedule=Align("u"))
                # The copy loop rewrote uold: the ledger already dropped
                # every other device's claim on the written rows, so the
                # exchange below pays for boundary rows once, then elides
                # them until the next write.
                exchange = plan_halo_op(
                    submachine, row_dist, halo, residency=region.residency
                )
                halo_total += exchange.time_s
                sweep_k = JacobiSweepKernel(
                    self.u,
                    self.uold,
                    self.f,
                    ax=self.ax,
                    ay=self.ay,
                    b=self.b,
                    omega=self.omega,
                )
                r2 = region.parallel_for(sweep_k, schedule=schedule)
                error = float(r2.reduction or 0.0)
                loop_results.append((r1, r2))
                iters += 1
        return JacobiResult(
            iterations=iters,
            final_error=error,
            sim_time_s=region.total_time_s + halo_total,
            halo_time_s=halo_total,
            u=self.u,
            per_loop_results=loop_results,
        )

    def reference(self, *, max_iters: int = 100, tol: float = 1e-8):
        """Serial solve with identical arithmetic; returns (u, iters, error)."""
        u = np.zeros((self.n, self.m))
        uold = np.zeros_like(u)
        f = self.f
        js = slice(1, self.m - 1)
        error = float("inf")
        iters = 0
        while iters < max_iters and error > tol:
            uold[:, :] = u
            resid = (
                self.ax * (uold[:-2, js] + uold[2:, js])
                + self.ay * (uold[1:-1, 0 : self.m - 2] + uold[1:-1, 2 : self.m])
                + self.b * uold[1:-1, js]
                - f[1:-1, js]
            ) / self.b
            u[1:-1, js] = uold[1:-1, js] - self.omega * resid
            error = float((resid * resid).sum())
            iters += 1
        return u, iters, error
