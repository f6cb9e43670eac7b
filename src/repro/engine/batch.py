"""Batch execution: many offload cells through one engine in one call.

Every figure/table in the reproduction is a *grid* of independent
(machine, kernel, policy) cells, and variant search over one shared
kernel needs many cheap cost evaluations.  :class:`BatchEngine` is the
virtual-time simulator (:class:`~repro.engine.simulator.OffloadEngine`)
plus one method: :meth:`BatchEngine.run_many` drives a list of
:class:`BatchRequest` cells, one after the other, through the same
:class:`~repro.engine.core.RunContext` and event loop ``virtual`` uses.
So each cell's :class:`~repro.engine.trace.OffloadResult` is
byte-identical to ``virtual``'s *by construction* — for every scheduler,
fault plan, tracer, residency view, noisy or contended machine.

What a batch buys is amortization, not a second notion of time: one
call, one engine, one run-gate acquisition, and a per-cell
``execute_numerically`` override so the caller can run numerics (and the
reference check) once per shared kernel instead of once per cell
(``HompRuntime._shared_kernel_specs`` is that rule).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.core import register_backend
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import OffloadResult
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


class BatchEngine(OffloadEngine):
    """The virtual engine with a batch entry point (registered as
    ``"batch"``); ``run`` is ``virtual``'s, inherited."""

    backend_name = "batch"

    def run_many(self, requests: list[BatchRequest]) -> list[OffloadResult]:
        """Execute a batch of cells; results are positionally aligned.

        The run gate is held for the whole batch, so a concurrent
        ``run``/``run_many``/``configured`` is refused until the last cell
        finished.  Afterwards ``chunk_log``/``timeline``/``faults``
        describe the last request.
        """
        with self._run_slot():
            results = []
            for req in requests:
                execute = req.execute_numerically
                if execute is None:
                    execute = self.execute_numerically
                core = self._run_context(
                    req.kernel,
                    req.scheduler,
                    req.cutoff_ratio,
                    execute_numerically=execute,
                )
                results.append(self._event_loop(core))
            return results


register_backend("batch", BatchEngine)
