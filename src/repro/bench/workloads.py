"""Benchmark workloads: the paper's named problem sizes, scalable.

The paper's sizes (Table V) are large — ``sum-300M`` alone is 2.4 GB of
doubles.  The virtual-time results depend on sizes only analytically, so
benchmarks default to a reduced scale that keeps the *numeric* execution
fast while preserving every who-wins relationship; set
``REPRO_BENCH_SCALE=full`` (or a float) to run the paper's exact sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.kernels.base import LoopKernel
from repro.kernels.registry import PAPER_SIZES, paper_workload

__all__ = [
    "BENCH_SCALE_ENV",
    "bench_scale",
    "workload",
    "workload_label",
    "WorkloadFactory",
    "WORKLOAD_NAMES",
]

BENCH_SCALE_ENV = "REPRO_BENCH_SCALE"

#: Default scales per kernel: 1-D kernels shrink hard (cost is linear);
#: 2-D kernels are already small in the paper.
_DEFAULT_SCALE = {
    "axpy": 0.5,        # 5M iterations
    "sum": 0.1,         # 30M
    "matvec": 0.125,    # 6000 rows
    "matmul": 0.125,    # 768 rows
    "stencil": 1.0,     # 256 (paper size)
    "bm": 1.0,          # 256 (paper size)
}

WORKLOAD_NAMES = tuple(PAPER_SIZES)


def bench_scale(name: str) -> float:
    """Scale factor for a workload, honouring ``REPRO_BENCH_SCALE``."""
    env = os.environ.get(BENCH_SCALE_ENV, "").strip().lower()
    if env in ("", "default"):
        return _DEFAULT_SCALE[name]
    if env in ("full", "paper", "1", "1.0"):
        return 1.0
    try:
        factor = float(env)
    except ValueError:
        raise ValueError(
            f"{BENCH_SCALE_ENV} must be 'full', 'default' or a float, got {env!r}"
        ) from None
    if not 0 < factor <= 1:
        raise ValueError(f"{BENCH_SCALE_ENV} must be in (0, 1], got {factor}")
    return factor


def workload(name: str, *, seed: int = 0) -> LoopKernel:
    """Fresh kernel instance for a named paper workload at bench scale."""
    return paper_workload(name, scale=bench_scale(name), seed=seed)


@dataclass(frozen=True)
class WorkloadFactory:
    """Zero-arg factory for a named paper workload.

    Unlike a lambda closure this is picklable and fingerprintable (so the
    offload service can coalesce the jobs that build the same kernel).
    Calling it is exactly
    ``workload(name, seed=seed)``.
    """

    name: str
    seed: int = 0

    def __call__(self) -> LoopKernel:
        return workload(self.name, seed=self.seed)

    def fingerprint(self) -> dict[str, Any]:
        """Identity of the kernel this factory builds.

        The bench scale is resolved at fingerprint time, so changing
        ``REPRO_BENCH_SCALE`` changes the identity.
        """
        return {
            "workload": self.name,
            "scale": bench_scale(self.name),
            "seed": self.seed,
        }


def workload_label(name: str) -> str:
    """The paper's workload label, e.g. 'axpy-10M', 'matul-6144' (sic)."""
    size = PAPER_SIZES[name]
    if size >= 1_000_000:
        s = f"{size // 1_000_000}M"
    elif size >= 1_000:
        s = f"{size // 1_000}k"
    else:
        s = str(size)
    spelled = {"matmul": "matul", "stencil": "stencil2d", "bm": "bm2d"}.get(name, name)
    return f"{spelled}-{s}"
