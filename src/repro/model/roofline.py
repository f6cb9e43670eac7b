"""Roofline model (paper ref [30]) used by the algorithm-selection heuristic.

HOMP's selector (paper §IV.D, §VI.D) keys off "computational intensity
based on the roofline model": compute-intensive kernels get BLOCK (same
devices) or MODEL_1_AUTO (different devices); balanced kernels get
SCHED_DYNAMIC; data-intensive kernels get MODEL_2_AUTO.  This module turns
a kernel's MemComp/DataComp ratios into that three-way classification.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["classify_intensity", "IntensityClass"]


class IntensityClass(Enum):
    """Coarse kernel classes used by the paper's selection heuristics."""

    DATA_INTENSIVE = "data-intensive"
    BALANCED = "compute-data balanced"
    COMPUTE_INTENSIVE = "compute-intensive"


# Thresholds on DataComp (bus traffic per unit of computation, Table IV).
# The paper's evaluation groups its kernels exactly this way: axpy (1.5) and
# sum (1.0) are data-intensive; matvec (~0.5) is balanced; matmul (~0),
# stencil (1/13) and block matching (0.06) behave compute-intensive.
_DATA_INTENSIVE_DATACOMP = 0.75
_COMPUTE_INTENSIVE_DATACOMP = 0.1


def classify_intensity(mem_comp: float, data_comp: float) -> IntensityClass:
    """Bucket a kernel by the paper's Table IV characterisation.

    ``mem_comp``  - memory loads/stores per unit of computation (MemComp).
    ``data_comp`` - bus bytes moved per unit of computation (DataComp).
    The primary axis is DataComp: how much PCIe traffic each unit of
    computation drags along decides whether data movement dominates the
    offload.  MemComp breaks ties for kernels that stress device memory but
    not the bus (they count as balanced, not compute-intensive, since
    device-memory bandwidth still caps them).
    """
    if mem_comp < 0 or data_comp < 0:
        raise ValueError("ratios must be >= 0")
    if data_comp >= _DATA_INTENSIVE_DATACOMP:
        return IntensityClass.DATA_INTENSIVE
    if data_comp <= _COMPUTE_INTENSIVE_DATACOMP:
        if mem_comp >= _DATA_INTENSIVE_DATACOMP:
            return IntensityClass.BALANCED
        return IntensityClass.COMPUTE_INTENSIVE
    return IntensityClass.BALANCED
