"""Half-open iteration ranges and the splitting primitives every
distribution policy is built from.

An :class:`IterRange` is a half-open interval ``[start, stop)`` over a loop
iteration space or one dimension of an array.  The invariants established
here — splits cover the parent exactly once, chunks are contiguous and
disjoint — are what the property tests in ``tests/util`` pin down, and every
scheduler relies on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["IterRange", "split_block", "split_by_weights"]


@dataclass(frozen=True, slots=True)
class IterRange:
    """A half-open range ``[start, stop)`` of loop iterations or indices."""

    start: int
    stop: int

    # Hand-written (dataclass keeps it): no __post_init__ call per range.
    def __init__(self, start: int, stop: int) -> None:
        if stop < start:
            raise ValueError(f"range stop {stop} < start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def empty(self) -> bool:
        return self.stop == self.start

    def intersect(self, other: "IterRange") -> "IterRange":
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi < lo:
            return IterRange(lo, lo)
        return IterRange(lo, hi)

    def expand(self, lo: int, hi: int, *, clamp: "IterRange | None" = None) -> "IterRange":
        """Grow by ``lo`` downward and ``hi`` upward (halo construction),
        optionally clamped to an enclosing range.

        A clamp window disjoint from the expanded range (or a negative
        ``lo``/``hi`` shrinking past empty) yields an *empty* range rather
        than an inverted one — positioned inside the clamp window when one
        is given.
        """
        start, stop = self.start - lo, self.stop + hi
        if clamp is not None:
            start = max(start, clamp.start)
            stop = min(stop, clamp.stop)
        if stop < start:
            start = stop = (
                min(max(start, clamp.start), clamp.stop)
                if clamp is not None
                else start
            )
        return IterRange(start, stop)

    def take(self, n: int) -> tuple["IterRange", "IterRange"]:
        """Split off the first ``n`` iterations: ``(head, rest)``."""
        n = max(0, min(n, len(self)))
        mid = self.start + n
        return IterRange(self.start, mid), IterRange(mid, self.stop)


def split_block(rng: IterRange, parts: int) -> list[IterRange]:
    """Divide ``rng`` into ``parts`` contiguous blocks as evenly as possible.

    Matches the paper's BLOCK policy (and the manual remainder-handling code
    in its Fig. 1 ``axpy_omp_mdev``): the first ``len(rng) % parts`` blocks
    get one extra iteration.  Blocks may be empty when ``parts > len(rng)``.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    n = len(rng)
    base, remnant = divmod(n, parts)
    out: list[IterRange] = []
    pos = rng.start
    for i in range(parts):
        size = base + (1 if i < remnant else 0)
        out.append(IterRange(pos, pos + size))
        pos += size
    return out


def split_by_weights(rng: IterRange, weights: Sequence[float]) -> list[IterRange]:
    """Divide ``rng`` into contiguous chunks proportional to ``weights``.

    Used by the model- and profile-based schedulers to turn per-device
    throughputs into loop chunks.  Uses largest-remainder rounding so the
    chunk sizes sum exactly to ``len(rng)``; zero or negative weights yield
    empty chunks (a device cut off by the CUTOFF heuristic receives weight
    zero).
    """
    if not weights:
        raise ValueError("weights must be non-empty")
    w = [max(0.0, float(x)) for x in weights]
    total = sum(w)
    n = len(rng)
    if total <= 0.0:
        # No device claims any work: give everything to the first slot so
        # the loop still executes (mirrors falling back to the host).
        sizes = [n] + [0] * (len(w) - 1)
    else:
        exact = [n * x / total for x in w]
        sizes = [int(e) for e in exact]
        shortfall = n - sum(sizes)
        # Largest fractional remainders get the leftover iterations.
        order = sorted(range(len(w)), key=lambda i: exact[i] - sizes[i], reverse=True)
        for i in order[:shortfall]:
            sizes[i] += 1
    out: list[IterRange] = []
    pos = rng.start
    for size in sizes:
        out.append(IterRange(pos, pos + size))
        pos += size
    return out
