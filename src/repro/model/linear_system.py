"""Equal-completion-time partitioning (paper Eq. 1-3).

MODEL_1_AUTO and MODEL_2_AUTO both reduce to the same linear system: give
device ``i`` a chunk ``N_i`` so every device finishes at the same ``T_0``.
With an affine per-device time ``T_i(N_i) = c_i + N_i * p_i`` (fixed cost
``c_i`` — launch overhead and link latency — plus per-iteration cost
``p_i`` — compute and, for MODEL_2, per-byte transfer), the system

    c_i + N_i * p_i = T_0           for all participating i
    sum_i N_i       = N

has the closed form ``T_0 = (N + sum(c_i / p_i * p_i ... ))`` — concretely
``T_0 = (N + sum_i c_i r_i) / sum_i r_i`` with rates ``r_i = 1/p_i``.  A
device whose fixed cost alone exceeds ``T_0`` would be assigned negative
work; the solver drops such devices and re-solves on the active set (this
is also the mechanism behind the CUTOFF heuristic's "predicted
contribution").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["PartitionSolution", "solve_equal_time_partition"]


@dataclass(frozen=True)
class PartitionSolution:
    """Result of the equal-time partition.

    ``shares``   - fractional iteration counts per device (sum == n_iters);
                   dropped devices get 0.0.
    ``t0``       - the common predicted completion time, seconds.
    ``active``   - indices of devices that received work.
    """

    shares: tuple[float, ...]
    t0: float
    active: tuple[int, ...]


def solve_equal_time_partition(
    per_iter_times: Sequence[float],
    fixed_costs: Sequence[float],
    n_iters: int,
) -> PartitionSolution:
    """Solve the paper's Eq. 3 for affine device time models.

    ``per_iter_times[i]`` — seconds per iteration on device ``i`` (> 0).
    ``fixed_costs[i]``    — seconds of fixed overhead on device ``i`` (>= 0).
    """
    m = len(per_iter_times)
    if m == 0:
        raise ValueError("need at least one device")
    if len(fixed_costs) != m:
        raise ValueError("per_iter_times and fixed_costs length mismatch")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    for i, (p, c) in enumerate(zip(per_iter_times, fixed_costs)):
        if p <= 0:
            raise ValueError(f"per_iter_times[{i}] must be > 0, got {p}")
        if c < 0:
            raise ValueError(f"fixed_costs[{i}] must be >= 0, got {c}")

    if n_iters == 0:
        return PartitionSolution(shares=tuple(0.0 for _ in range(m)), t0=0.0, active=())

    active = list(range(m))
    while True:
        rates = [1.0 / per_iter_times[i] for i in active]
        t0 = (n_iters + sum(fixed_costs[i] * r for i, r in zip(active, rates))) / sum(
            rates
        )
        # Devices whose fixed cost alone exceeds T0 would get negative work.
        drop = [i for i in active if fixed_costs[i] >= t0]
        if not drop:
            break
        # Never drop the last device: someone has to run the loop.
        if len(drop) == len(active):
            best = min(active, key=lambda i: fixed_costs[i] + n_iters * per_iter_times[i])
            active = [best]
            t0 = fixed_costs[best] + n_iters * per_iter_times[best]
            break
        active = [i for i in active if i not in drop]

    shares = [0.0] * m
    for i in active:
        shares[i] = (t0 - fixed_costs[i]) / per_iter_times[i]
    # Guard against tiny negative residue from float arithmetic.
    shares = [max(0.0, s) for s in shares]
    scale = n_iters / sum(shares)
    shares = [s * scale for s in shares]
    return PartitionSolution(
        shares=tuple(shares), t0=t0, active=tuple(i for i in active if shares[i] > 0)
    )
