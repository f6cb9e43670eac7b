"""Memory model: device buffers, map semantics, the unified-memory cost
model behind the paper's section V.C claim, and the residency ledger /
data-placement plans behind target-data regions."""

from repro.memory.space import MapDirection
from repro.memory.buffer import DeviceBuffer
from repro.memory.residency import (
    DataPlacementPlan,
    RegionResidency,
    ResidencyLedger,
)
from repro.memory.unified import UnifiedMemoryModel

__all__ = [
    "MapDirection",
    "DeviceBuffer",
    "UnifiedMemoryModel",
    "ResidencyLedger",
    "DataPlacementPlan",
    "RegionResidency",
]
