"""Guided chunking — SCHED_GUIDED (paper §IV.A.3).

Like dynamic chunking, but each successive chunk shrinks: "program
execution starts with large chunk sizes and then chunks reduce in sizes as
the computation close to finish, thus reducing the total amount of chunks
and still maintaining good balance".  Chunk ``k`` takes ``first_pct`` of
the *remaining* iterations (paper notation "SCHED_GUIDED,20%"), floored at
``min_chunk`` so the tail doesn't degenerate into single iterations.
"""

from __future__ import annotations

import math

from repro.sched.base import Decision, LoopScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["GuidedScheduler"]

DEFAULT_FIRST_PCT = 0.20  # the paper's "SCHED_GUIDED,20%"


def _round_half_up(x: float) -> int:
    """``floor(x + 0.5)``: exact halves always round up.

    Python's ``round()`` is banker's rounding (halves go to the nearest
    *even* integer), so two configurations one iteration apart could
    produce non-monotonic chunk sequences; half-up keeps chunk sizes a
    monotonic function of the remaining iteration count.
    """
    return math.floor(x + 0.5)


class GuidedScheduler(LoopScheduler):
    notation = "SCHED_GUIDED"
    stages = -1  # "multiple"
    supports_cutoff = False

    def __init__(self, first_pct: float = DEFAULT_FIRST_PCT, min_chunk: int | None = None):
        super().__init__()
        self.first_pct = self._fraction("first_pct", first_pct)
        self._min_chunk_arg = (
            None if min_chunk is None else self._count("min_chunk", min_chunk)
        )

    def start(self, ctx: SchedContext) -> None:
        super().start(ctx)
        self._cursor = ctx.iter_space.start
        self._stop = ctx.iter_space.stop
        if self._min_chunk_arg is not None:
            self._min_chunk = self._min_chunk_arg
        else:
            # Default floor: 1/4 of the first chunk split across devices.
            self._min_chunk = max(
                1, _round_half_up(ctx.n_iters * self.first_pct / (4 * ctx.ndev))
            )

    def next(self, devid: int) -> Decision:
        remaining = self._stop - self._cursor
        if remaining <= 0:
            return None
        size = max(self._min_chunk, _round_half_up(remaining * self.first_pct))
        size = min(size, remaining)
        start = self._cursor
        self._cursor = start + size
        return IterRange(start, start + size)

    def describe(self) -> str:
        return f"{self.notation},{self.first_pct:.0%}"
