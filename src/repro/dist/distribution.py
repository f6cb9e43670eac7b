"""Concrete distributions: per-device ranges of one loop or array dim.

A :class:`DimDistribution` is the *result* of applying a policy to one
region: for each device, the half-open ranges it owns.  The runtime
places every mapped array by its dim-0 distribution.

Invariants (pinned by property tests): per-device ranges of a partitioning
policy are disjoint and cover the region exactly; FULL replicates the whole
region on every device.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import DistributionError
from repro.dist.policy import Full, Policy
from repro.util.ranges import IterRange

__all__ = ["DimDistribution"]


@dataclass(frozen=True)
class DimDistribution:
    """One region distributed over ``ndev`` devices."""

    region: IterRange
    parts: tuple[tuple[IterRange, ...], ...]  # parts[devid] -> ranges
    policy: Policy
    replicated: bool = False

    def __post_init__(self) -> None:
        if not self.parts:
            raise DistributionError("distribution must cover at least one device")
        if not self.replicated:
            covered = sum(len(r) for ranges in self.parts for r in ranges)
            if covered != len(self.region):
                raise DistributionError(
                    f"distribution covers {covered} of {len(self.region)} indices"
                )

    @property
    def ndev(self) -> int:
        return len(self.parts)

    def device_ranges(self, devid: int) -> tuple[IterRange, ...]:
        return self.parts[devid]

    def device_size(self, devid: int) -> int:
        return sum(len(r) for r in self.parts[devid])

    def scaled(
        self, ratio: float, policy: Policy, extent: IterRange | None = None
    ) -> "DimDistribution":
        """ALIGN with a ratio: every range boundary scaled by ``ratio``.

        Boundaries are rounded to integers; with integral ratios (the common
        case: an array of ``r*N`` elements aligned to an ``N``-iteration
        loop) the result covers the scaled region exactly.  ``extent`` (the
        aligner's own region) clamps every scaled boundary into it, so an
        overshooting ratio never places rows the aligner does not have.
        """
        if ratio <= 0:
            raise DistributionError(f"ALIGN ratio must be positive, got {ratio}")

        def s(x: int) -> int:
            x = round(x * ratio)
            return x if extent is None else min(extent.stop, max(extent.start, x))

        region = IterRange(s(self.region.start), s(self.region.stop))
        parts = tuple(
            tuple(IterRange(s(r.start), s(r.stop)) for r in ranges)
            for ranges in self.parts
        )
        return DimDistribution(
            region=region, parts=parts, policy=policy, replicated=self.replicated
        )

    @classmethod
    def from_policy(
        cls, policy: Policy, region: IterRange, ndev: int
    ) -> "DimDistribution":
        """Apply a static policy (FULL/BLOCK) to a region."""
        if policy.needs_runtime:
            raise DistributionError(
                f"policy {policy} needs runtime resolution, not a static split"
            )
        parts = tuple(tuple(rs) for rs in policy.split(region, ndev))
        return cls(
            region=region,
            parts=parts,
            policy=policy,
            replicated=isinstance(policy, Full),
        )
