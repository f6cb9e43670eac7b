"""Memory model: device buffers, map semantics, copy-vs-share decisions,
the unified-memory cost model behind the paper's section V.C claim, and
the residency ledger / data-placement plans behind target-data regions."""

from repro.memory.space import MapDirection
from repro.memory.buffer import DeviceBuffer
from repro.memory.mapper import DataMapper, MapDecision
from repro.memory.residency import (
    DataPlacementPlan,
    RegionResidency,
    ResidencyLedger,
)
from repro.memory.unified import UnifiedMemoryModel

__all__ = [
    "MapDirection",
    "DeviceBuffer",
    "DataMapper",
    "MapDecision",
    "UnifiedMemoryModel",
    "ResidencyLedger",
    "DataPlacementPlan",
    "RegionResidency",
]
