"""Rate-aware stream rebalancing — the streaming runtime's scheduler.

A stream (:class:`~repro.ir.ops.StreamOp`) runs the same kernel over many
batches; the one thing the runtime learns for free is each device's
*observed* batch rate.  :class:`StreamRebalanceScheduler` is a stateful
scheduler the stream runner reuses across every batch of one stream:

* within a batch it is BLOCK-shaped — one contiguous chunk per device,
  fixed at ``start`` — so per-batch overhead stays at the Table II
  "Low" tier;
* between batches it re-derives the split from an EWMA of measured
  per-device rates (``observe`` folds in every finished chunk), so a
  device that slows down mid-stream — a fault-plan window, thermal
  throttling, a noisy neighbour — sheds iterations on the *next* batch;
* with no history yet (batch 0, or a fresh device set) it degrades to
  exactly the static BLOCK split, and a device that appears without
  history mid-stream is seeded with the mean of the known rates;
* a device lost mid-stream (:meth:`device_lost`, driven by the fault
  layer) stays dead for the remainder of the stream — the ``_dead`` set
  persists across ``start`` calls, unlike every one-shot scheduler.

CUTOFF composes the usual way: predicted (here: observed) contributions
below the ratio zero the device out of the split for that batch; the
device keeps feeding the EWMA if it later rejoins.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.sched.base import PlannedScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["StreamRebalanceScheduler"]


class StreamRebalanceScheduler(PlannedScheduler):
    """BLOCK-shaped per batch; rebalanced between batches by EWMA rates."""

    notation = "STREAM_REBALANCE"
    stages = 1
    supports_cutoff = True

    def __init__(self, *, alpha: float = 0.3):
        super().__init__()
        self.alpha = self._fraction("alpha", alpha)
        #: devid -> EWMA of measured iters/s, persistent across batches.
        self._rates: dict[int, float] = {}
        #: devids lost mid-stream; they never rejoin this stream.
        self._dead: set[int] = set()

    def plan(self, ctx: SchedContext) -> list[IterRange]:
        ndev = ctx.ndev
        alive = [d for d in range(ndev) if d not in self._dead]
        if not alive:
            raise SchedulingError(
                "STREAM_REBALANCE: every device was lost mid-stream"
            )
        known = [self._rates[d] for d in alive if d in self._rates]
        # A device without history gets the mean of the known rates; with
        # no history at all that degrades to the static BLOCK split.
        mean = sum(known) / len(known) if known else 1.0
        weights = [
            0.0 if d in self._dead else self._rates.get(d, mean)
            for d in range(ndev)
        ]
        return self._split(lambda devs: [weights[i] for i in devs])

    def observe(self, devid: int, chunk: IterRange, elapsed_s: float) -> None:
        rate = len(chunk) / max(elapsed_s, 1e-12)
        prev = self._rates.get(devid)
        self._rates[devid] = (
            rate if prev is None else (1.0 - self.alpha) * prev + self.alpha * rate
        )

    def device_lost(self, devid: int) -> list[IterRange]:
        self._dead.add(devid)
        self._rates.pop(devid, None)
        return super().device_lost(devid)

    def describe(self) -> str:
        return f"{self.notation},a={self.alpha:g}"
