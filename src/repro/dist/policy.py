"""Distribution policies (paper Table I).

========  ===================================================================
FULL      the full range of this dimension goes to every device (default)
BLOCK     divide the indices evenly into contiguous blocks
ALIGN     copy another distribution's ranges (optionally scaled by a ratio)
AUTO      loop distribution only: left to the runtime scheduler
========  ===================================================================

Policies are small frozen value objects; applying one to a region yields the
per-device ranges via :meth:`Policy.split`.  ALIGN and AUTO cannot split on
their own (they need the alignment graph or the scheduler respectively) and
raise ``DistributionError`` when asked directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import DirectiveSyntaxError, DistributionError
from repro.util.ranges import IterRange, split_block

__all__ = ["Policy", "Full", "Block", "Align", "Auto", "parse_policy"]


@dataclass(frozen=True, slots=True)
class Policy:
    """Base class for distribution policies."""

    def split(self, region: IterRange, ndev: int) -> list[list[IterRange]]:
        """Per-device ranges: a list of ``ndev`` lists of disjoint ranges."""
        raise NotImplementedError

    @property
    def needs_runtime(self) -> bool:
        """True when the split is decided later (ALIGN/AUTO)."""
        return False


@dataclass(frozen=True, slots=True)
class Full(Policy):
    """Every device receives the full range (replication)."""

    def split(self, region: IterRange, ndev: int) -> list[list[IterRange]]:
        if ndev <= 0:
            raise DistributionError(f"ndev must be positive, got {ndev}")
        return [[region] for _ in range(ndev)]

    def __str__(self) -> str:
        return "FULL"


@dataclass(frozen=True, slots=True)
class Block(Policy):
    """Contiguous even blocks (first ``len % ndev`` blocks one larger)."""

    def split(self, region: IterRange, ndev: int) -> list[list[IterRange]]:
        if ndev <= 0:
            raise DistributionError(f"ndev must be positive, got {ndev}")
        return [[r] for r in split_block(region, ndev)]

    def __str__(self) -> str:
        return "BLOCK"


@dataclass(frozen=True, slots=True)
class Align(Policy):
    """Copy the ``target`` distribution's ranges, scaled by ``ratio``.

    ``target`` names either a mapped array (align computation with data,
    paper's ``axpy_homp_v1``) or a labelled loop (align data with
    computation, ``axpy_homp_v2``).
    """

    target: str
    ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.target:
            raise DistributionError("ALIGN requires a target name")
        if self.ratio <= 0:
            raise DistributionError(f"ALIGN ratio must be positive, got {self.ratio}")

    def split(self, region: IterRange, ndev: int) -> list[list[IterRange]]:
        raise DistributionError(
            f"ALIGN({self.target}) must be resolved through the alignment graph"
        )

    @property
    def needs_runtime(self) -> bool:
        return True

    def __str__(self) -> str:
        if self.ratio != 1.0:
            return f"ALIGN({self.target},{self.ratio:g})"
        return f"ALIGN({self.target})"


@dataclass(frozen=True, slots=True)
class Auto(Policy):
    """Loop distribution decided by the runtime scheduler (paper AUTO)."""

    def split(self, region: IterRange, ndev: int) -> list[list[IterRange]]:
        raise DistributionError("AUTO is resolved by the loop scheduler at runtime")

    @property
    def needs_runtime(self) -> bool:
        return True

    def __str__(self) -> str:
        return "AUTO"


_ALIGN_RE = re.compile(
    r"^ALIGN\(\s*([A-Za-z_]\w*)\s*(?:,\s*([0-9.eE+-]+)\s*)?\)$", re.IGNORECASE
)


def parse_policy(text: str) -> Policy:
    """Parse one policy token as written in HOMP directives.

    Accepts ``FULL``, ``BLOCK``, ``AUTO``, ``ALIGN(name)`` and
    ``ALIGN(name, ratio)``.
    """
    t = text.strip()
    upper = t.upper()
    if upper == "FULL":
        return Full()
    if upper == "BLOCK":
        return Block()
    if upper == "AUTO":
        return Auto()
    m = _ALIGN_RE.match(t)
    if m:
        try:
            ratio = float(m.group(2)) if m.group(2) else 1.0
        except ValueError as exc:
            raise DirectiveSyntaxError("bad ALIGN ratio", text=text) from exc
        return Align(target=m.group(1), ratio=ratio)
    raise DirectiveSyntaxError("unknown distribution policy", text=text)
