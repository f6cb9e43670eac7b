"""The ALIGN resolution graph (paper §V.D).

ALIGN policies name another distribution ("alignee").  Chains are legal —
array ``u`` aligns with array ``uold`` which aligns with loop ``loop1`` —
and the paper's runtime "re-links those distributions so each aligner
points to the root alignee's distribution".  This module implements that:
a registry of named distributions plus ALIGN edges, root lookup with
composed ratios, and cycle/missing-target detection.

Names live in one namespace covering mapped arrays (per dimension) and
labelled loops, matching how the directives reference them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AlignmentError
from repro.dist.distribution import DimDistribution
from repro.dist.policy import Align
from repro.util.ranges import IterRange

__all__ = ["AlignmentGraph"]


@dataclass
class AlignmentGraph:
    """Named distributions and the ALIGN edges between them."""

    _concrete: dict[str, DimDistribution] = field(default_factory=dict)
    _edges: dict[str, Align] = field(default_factory=dict)

    def add_concrete(self, name: str, dist: DimDistribution) -> None:
        """Register a root distribution (BLOCK'd array dim, scheduled loop)."""
        if name in self._edges:
            raise AlignmentError(f"{name!r} is already an ALIGN node")
        self._concrete[name] = dist

    def add_align(self, name: str, policy: Align) -> None:
        """Register that ``name`` is distributed as ALIGN(policy.target)."""
        if name in self._concrete:
            raise AlignmentError(f"{name!r} already has a concrete distribution")
        if policy.target == name:
            raise AlignmentError(f"{name!r} cannot align with itself")
        self._edges[name] = policy

    def root_of(self, name: str) -> tuple[str, float]:
        """Follow ALIGN edges to the root alignee.

        Returns ``(root_name, composed_ratio)``.  Raises on cycles and on
        targets that are not registered at all.
        """
        seen: list[str] = []
        ratio = 1.0
        cur = name
        while cur in self._edges:
            if cur in seen:
                cycle = " -> ".join(seen + [cur])
                raise AlignmentError(f"ALIGN cycle: {cycle}")
            seen.append(cur)
            edge = self._edges[cur]
            ratio *= edge.ratio
            cur = edge.target
        if cur not in self._concrete and cur != name:
            raise AlignmentError(
                f"ALIGN target {cur!r} (reached from {name!r}) has no distribution"
            )
        return cur, ratio

    def resolve(
        self, name: str, *, extent: IterRange | None = None
    ) -> DimDistribution:
        """The concrete distribution for ``name`` after re-linking to root:
        the root alignee's ranges scaled by the composed ratio, clamped
        into ``extent`` (the aligner's own region) when given."""
        if name in self._concrete:
            return self._concrete[name]
        if name not in self._edges:
            raise AlignmentError(f"unknown distribution {name!r}")
        root, ratio = self.root_of(name)
        if root not in self._concrete:
            raise AlignmentError(f"root alignee {root!r} is not yet distributed")
        return self._concrete[root].scaled(ratio, self._edges[name], extent)
