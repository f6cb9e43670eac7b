"""Analytical models: Hockney transfers, roofline intensity, and the
loop-partitioning linear systems behind MODEL_1_AUTO / MODEL_2_AUTO."""

from repro.model.hockney import fit_hockney
from repro.model.roofline import classify_intensity, IntensityClass
from repro.model.kernel_model import KernelCosts
from repro.model.linear_system import solve_equal_time_partition, PartitionSolution

__all__ = [
    "fit_hockney",
    "classify_intensity",
    "IntensityClass",
    "KernelCosts",
    "solve_equal_time_partition",
    "PartitionSolution",
]
