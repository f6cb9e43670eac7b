"""CUTOFF device selection (paper §IV.E).

When predicted per-device contributions are available (model- and
profile-based algorithms), devices whose contribution falls below the
CUTOFF ratio are excluded: "the additional overhead incurred by involving
those slower devices are much higher than the contributions made by those
devices."  The paper picks the ratio as the average contribution assuming
identical devices — ``1 / ndev`` (their 15% for a 7-device node).

:func:`apply_cutoff` drops the weakest below-cutoff device and re-solves
the shares (via the caller-provided ``resolve``), repeating until every
surviving device clears the ratio.  Dropping one device at a time, weakest
first, guarantees termination and never empties the device set: on
identical devices the shares rise past the cutoff as peers are removed.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SchedulingError

__all__ = ["default_cutoff_ratio", "parse_cutoff_ratio", "apply_cutoff"]


def default_cutoff_ratio(ndev: int) -> float:
    """The paper's choice: average contribution if all devices were equal."""
    if ndev <= 0:
        raise SchedulingError(f"ndev must be positive, got {ndev}")
    return 1.0 / ndev


def parse_cutoff_ratio(value, where: str = "") -> float:
    """``value`` as a CUTOFF ratio, a fraction in ``[0, 1)`` — the one place
    the interval is written (``"auto"`` is the caller's to resolve first).
    ``where`` prefixes the error (``"specs[3]."``, ``"job "``).
    """
    try:
        ratio = float(value)
    except (TypeError, ValueError):
        raise SchedulingError(
            f"{where}cutoff_ratio {value!r} is not a fraction or 'auto'"
        ) from None
    if not 0.0 <= ratio < 1.0:
        raise SchedulingError(f"{where}cutoff_ratio {ratio} is outside [0, 1)")
    return ratio


def apply_cutoff(
    shares: Sequence[float],
    cutoff_ratio: float,
    resolve: Callable[[list[int]], Sequence[float]],
) -> list[float]:
    """Zero out devices predicted to contribute less than ``cutoff_ratio``.

    ``shares``  - initial per-device work shares (any non-negative scale).
    ``resolve`` - given the list of surviving device indices, return their
                  new shares (same order as the indices).  Model schedulers
                  re-solve the equal-time system; profile schedulers
                  re-normalise throughputs.

    Returns a full-length share list with cut devices at 0.0.
    """
    cutoff_ratio = parse_cutoff_ratio(cutoff_ratio)
    n = len(shares)
    if n == 0:
        raise SchedulingError("shares must be non-empty")
    active = [i for i in range(n) if shares[i] > 0.0]
    if not active:
        raise SchedulingError("no device has a positive share")
    current = {i: float(shares[i]) for i in active}

    if cutoff_ratio > 0.0:
        while len(current) > 1:
            total = sum(current.values())
            fractions = {i: s / total for i, s in current.items()}
            below = [i for i, f in fractions.items() if f < cutoff_ratio]
            if not below:
                break
            weakest = min(below, key=lambda i: fractions[i])
            survivors = sorted(i for i in current if i != weakest)
            new = resolve(survivors)
            if len(new) != len(survivors):
                raise SchedulingError("resolve() returned wrong number of shares")
            current = {i: max(0.0, float(s)) for i, s in zip(survivors, new)}
            current = {i: s for i, s in current.items() if s > 0.0}
            if not current:
                raise SchedulingError("resolve() zeroed every surviving device")

    out = [0.0] * n
    for i, s in current.items():
        out[i] = s
    return out
