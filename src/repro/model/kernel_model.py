"""Per-kernel cost descriptors consumed by the analytical schedulers.

A :class:`KernelCosts` bundles, for a chunk of ``n`` iterations of a given
loop, the quantities the paper's Table III names: FLOPs, device-memory
traffic (load/stores), and bus traffic to/from the device.  From these it
derives the Table IV ratios:

* ``MemComp``  = memory load/stores per unit of computation,
* ``DataComp`` = transferred bytes per unit of computation,

both normalised the way the paper normalises them — per *element
operation*, not per raw FLOP, so AXPY comes out at 1.5/1.5, Sum at 1/1,
matvec at ``1 + 0.5/N`` / ``0.5 + 1/N`` and so on.  Each kernel supplies
callables because the per-iteration work can depend on the problem shape
(matvec rows touch N elements each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.model.roofline import IntensityClass, classify_intensity

__all__ = ["KernelCosts"]


@dataclass(frozen=True)
class KernelCosts:
    """Analytic costs of one parallel loop.

    ``flops_of(n)``      - arithmetic operations in ``n`` iterations.
    ``mem_bytes_of(n)``  - device-memory bytes touched by ``n`` iterations.
    ``xfer_bytes_of(n)`` - bus bytes to move data for ``n`` iterations
                           (copy-in + copy-out for a discrete device).
    ``ops_of(n)``        - the normalisation unit for Table IV ratios
                           (element operations; defaults to ``flops_of``).
    """

    flops_of: Callable[[int], float]
    mem_bytes_of: Callable[[int], float]
    xfer_bytes_of: Callable[[int], float]
    elem_bytes: int = 8
    ops_of: Callable[[int], float] | None = None

    def _ops(self, n: int) -> float:
        fn = self.ops_of or self.flops_of
        return fn(n)

    def mem_comp(self, n_total: int) -> float:
        """Table IV MemComp: memory accesses per element operation."""
        ops = self._ops(n_total)
        if ops <= 0:
            return 0.0
        return (self.mem_bytes_of(n_total) / self.elem_bytes) / ops

    def data_comp(self, n_total: int) -> float:
        """Table IV DataComp: transferred elements per element operation."""
        ops = self._ops(n_total)
        if ops <= 0:
            return 0.0
        return (self.xfer_bytes_of(n_total) / self.elem_bytes) / ops

    def intensity_class(self, n_total: int) -> IntensityClass:
        return classify_intensity(self.mem_comp(n_total), self.data_comp(n_total))
