"""Higher-level applications built on the HOMP runtime (paper Fig. 3)."""

from repro.apps.jacobi import JacobiSolver, JacobiResult, JacobiCopyKernel, JacobiSweepKernel
from repro.apps.blas_chain import PowerIteration, PowerIterationResult
from repro.apps.streaming import (
    OnlineSumKernel,
    SlidingStencilKernel,
    StreamingBlockMatchingKernel,
)

__all__ = [
    "SlidingStencilKernel",
    "OnlineSumKernel",
    "StreamingBlockMatchingKernel",
    "JacobiSolver",
    "JacobiResult",
    "JacobiCopyKernel",
    "JacobiSweepKernel",
    "PowerIteration",
    "PowerIterationResult",
]
