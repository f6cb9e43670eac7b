"""Data/loop distribution: Table I policies, per-dim distributions, ALIGN graph."""

from repro.dist.policy import (
    Policy,
    Full,
    Block,
    Cyclic,
    Align,
    Auto,
    parse_policy,
)
from repro.dist.distribution import DimDistribution, ArrayDistribution
from repro.dist.align import AlignmentGraph
from repro.dist.nested import TileDistribution, device_grid

__all__ = [
    "Policy",
    "Full",
    "Block",
    "Cyclic",
    "Align",
    "Auto",
    "parse_policy",
    "DimDistribution",
    "ArrayDistribution",
    "AlignmentGraph",
    "TileDistribution",
    "device_grid",
]
