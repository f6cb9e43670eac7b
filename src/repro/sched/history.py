"""History-guided distribution — the paper's stated future work.

The conclusion names "improving prediction models" as future work and the
related-work section discusses Qilin [21], which "uses historical
execution to project the execution time of a given problem sizes".  This
scheduler implements that approach on top of the Table II machinery:

* a :class:`HistoryDB` records, per (kernel, device-spec) pair, the
  measured per-iteration time of every chunk any engine run executed;
* :class:`HistoryScheduler` distributes a new loop by the recorded rates —
  single stage, no profiling run needed — and falls back to MODEL_2 when
  a device has no history yet.

Unlike the analytical models, the database sees *real* per-device
behaviour (including effects the models misprice, like the MICs'
overprediction), so a second offload of a mispredicted kernel lands close
to the profiling algorithms' quality at MODEL-level overhead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.sched.base import PlannedScheduler, SchedContext
from repro.util.ranges import IterRange

__all__ = ["HistoryDB", "HistoryScheduler"]


def _device_key(spec) -> str:
    """Devices with identical specs share history."""
    bw = "inf" if spec.link.is_shared else f"{spec.link.bandwidth_gbs:g}"
    return (
        f"{spec.dev_type.value}:{spec.sustained_gflops:g}:"
        f"{spec.mem_bandwidth_gbs:g}:{spec.link.latency_s:g}:{bw}"
    )


@dataclass
class _Record:
    iters: int = 0
    seconds: float = 0.0

    @property
    def per_iter_s(self) -> float | None:
        if self.iters <= 0 or self.seconds <= 0:
            return None
        return self.seconds / self.iters


@dataclass
class HistoryDB:
    """Per-(kernel, device) measured throughput, optionally persisted."""

    _records: dict[str, _Record] = field(default_factory=dict)

    @staticmethod
    def _key(kernel_name: str, spec) -> str:
        return f"{kernel_name}|{_device_key(spec)}"

    def record(self, kernel_name: str, spec, iters: int, seconds: float) -> None:
        if iters <= 0 or seconds < 0:
            return
        rec = self._records.setdefault(self._key(kernel_name, spec), _Record())
        rec.iters += iters
        rec.seconds += seconds

    def per_iter_s(self, kernel_name: str, spec) -> float | None:
        rec = self._records.get(self._key(kernel_name, spec))
        return rec.per_iter_s if rec else None

    def ingest(self, result, machine) -> int:
        """Learn from any past :class:`~repro.engine.trace.OffloadResult`.

        Uses each participating device's busy time (transfers + compute,
        the same quantity ``observe`` sees per chunk).  This breaks the
        cold-start loop: a device the fallback model refuses to use can
        still enter the database through a chunk-scheduled run.  Returns
        the number of devices ingested.
        """
        n = 0
        for trace in result.traces:
            if not trace.participated:
                continue
            spec = machine[trace.devid]
            busy = trace.compute_s + trace.xfer_in_s + trace.xfer_out_s
            self.record(result.kernel_name, spec, trace.iters, busy)
            n += 1
        return n

    def __len__(self) -> int:
        return len(self._records)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {
            k: {"iters": r.iters, "seconds": r.seconds}
            for k, r in self._records.items()
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "HistoryDB":
        data = json.loads(Path(path).read_text())
        db = cls()
        for k, v in data.items():
            db._records[k] = _Record(
                iters=int(v["iters"]), seconds=float(v["seconds"])
            )
        return db


class HistoryScheduler(PlannedScheduler):
    """Single-stage distribution by historically measured throughput."""

    notation = "HISTORY_AUTO"
    stages = 1
    supports_cutoff = True

    def __init__(self, db: HistoryDB):
        super().__init__()
        self.db = db

    def plan(self, ctx: SchedContext) -> list[IterRange]:
        kernel_name = ctx.kernel.name

        def per_iter(devid: int) -> float:
            measured = self.db.per_iter_s(kernel_name, ctx.devices[devid].spec)
            if measured is not None:
                return measured
            # cold start: fall back to the MODEL_2 view
            return ctx.per_iter_total_s(devid)

        return self._split_equal_time(per_iter, ctx.fixed_cost_s)

    def observe(self, devid: int, chunk: IterRange, elapsed_s: float) -> None:
        """Every executed chunk feeds the database (learning while running)."""
        self.db.record(
            self.ctx.kernel.name, self.ctx.devices[devid].spec, len(chunk), elapsed_s
        )

