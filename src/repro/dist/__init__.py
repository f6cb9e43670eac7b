"""Data/loop distribution: Table I policies, the dim-0 distribution, ALIGN graph."""

from repro.dist.policy import (
    Policy,
    Full,
    Block,
    Cyclic,
    Align,
    Auto,
    parse_policy,
)
from repro.dist.distribution import DimDistribution
from repro.dist.align import AlignmentGraph

__all__ = [
    "Policy",
    "Full",
    "Block",
    "Cyclic",
    "Align",
    "Auto",
    "parse_policy",
    "DimDistribution",
    "AlignmentGraph",
]
