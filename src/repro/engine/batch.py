"""Batch execution: many offload cells through one engine in one call.

Every figure/table in the reproduction is a *grid* of independent
(machine, kernel, policy) cells.  :meth:`~repro.engine.simulator.
OffloadEngine.run_many` drives a list of :class:`BatchRequest` cells, one
after the other, through the same event loop ``run`` uses, so each cell's
result is byte-identical to ``run``'s by construction.  What a batch buys
is amortization: one call, one run-gate acquisition, and a per-cell
``execute_numerically`` override so the caller can run numerics once per
shared kernel instead of once per cell (``HompRuntime._shared_kernel_specs``
is that rule).  ``"batch"`` names the same class as ``"virtual"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.simulator import OffloadEngine
from repro.kernels.base import LoopKernel
from repro.sched.base import LoopScheduler

__all__ = ["BatchRequest", "BatchEngine"]


@dataclass
class BatchRequest:
    """One cell of a batch: a kernel under one scheduler instance.

    ``execute_numerically`` overrides the engine-level flag per cell
    (None = inherit); the grid runner uses this to run numerics once per
    shared kernel instance instead of once per cell.
    """

    kernel: LoopKernel
    scheduler: LoopScheduler
    cutoff_ratio: float = 0.0
    execute_numerically: bool | None = None


#: The name the batch entry point was first published under.
BatchEngine = OffloadEngine
