"""Unified (managed) memory cost model — the paper's §V.C observation.

On the paper's Kepler-generation GPUs, unified memory migrates whole
managed allocations at kernel-launch granularity through the driver, with
far lower effective bandwidth than a pipelined explicit ``cudaMemcpy``; the
paper measured "maximum of 10 and 18 times slowdown in our BLAS examples"
and therefore defaults to explicit movement.  This model reproduces that
regime: migration achieves a small fraction of the link bandwidth and pays
a per-buffer driver cost, so bandwidth-dominated (BLAS-1/2) offloads come
out an order of magnitude slower.

The ablation benchmark ``benchmarks/test_ablation_unified_memory.py``
regenerates the 10-18x window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.interconnect import Link

__all__ = ["UnifiedMemoryModel"]


@dataclass(frozen=True)
class UnifiedMemoryModel:
    """Cost of demand-migrated access to a managed buffer.

    ``bandwidth_fraction`` - fraction of the explicit-copy link bandwidth
      that driver-managed migration achieves (Kepler-era UVM: ~1/12).
    ``per_buffer_overhead_s`` - driver bookkeeping per managed buffer per
      kernel launch.
    """

    bandwidth_fraction: float = 1.0 / 12.0
    per_buffer_overhead_s: float = 50e-6

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_fraction <= 1:
            raise ValueError("bandwidth_fraction must be in (0, 1]")
        if self.per_buffer_overhead_s < 0:
            raise ValueError("per_buffer_overhead_s must be >= 0")

    def migration_time(self, link: Link, nbytes: float) -> float:
        """Time to fault/migrate ``nbytes`` of managed data across ``link``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        if link.is_shared:
            return 0.0
        slow_link = Link(
            latency_s=link.latency_s,
            bandwidth_gbs=link.bandwidth_gbs * self.bandwidth_fraction,
        )
        return self.per_buffer_overhead_s + slow_link.transfer_time(nbytes)
