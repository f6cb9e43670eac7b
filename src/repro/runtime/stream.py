"""Stream execution: one offload template run over many data batches.

The runner behind :class:`~repro.ir.ops.StreamOp` (the
``stream(batches=N, window=W)`` clause, HSTREAM direction).  A stream is
*not* N independent offloads:

* **One persistent data region.**  The template's maps — hoisted into
  ``StreamOp.region_maps`` by the ``stream-pipeline`` pass — open a
  single :class:`~repro.runtime.data_env.TargetDataRegion` around the
  whole batch sequence, so device-resident state survives across
  batches and a steady-state batch pays only the sliding-window delta
  the host refreshed since the last one (``bytes_elided`` in each batch
  result's residency meta records the savings).
* **One binding, one lease, cross-batch double buffering.**  Devices,
  engine and scheduler are bound once and the engine's lease is entered
  once around all batches; each batch is one pass through the runtime's
  back half.  The runner hands each run the previous one's
  ``carry_out()`` — its skeleton of devices and states, built once at
  batch 0 — as ``carry_in=``, so batch k+1's copy-ins queue behind
  (and overlap with) batch k's still-draining compute and copy-out
  stages.  All times are cumulative stream time; spans are stamped
  ``batch=<k>`` through :meth:`Tracer.bind <repro.obs.tracer.Tracer.bind>`.
* **One scheduler instance.**  A stateful scheduler (STREAM_REBALANCE)
  keeps its observed-rate history and its lost-device set across
  ``start`` calls, re-deriving the split between batches; stateless
  schedulers simply re-partition each batch.

Between batches the host *advances* the stream: a kernel exposing
``stream_advance(batch, window)`` mutates its host arrays and returns
the dirty dim-0 row ranges per array; the runner invalidates those rows
on every region device so the next batch re-stages exactly the delta.
Kernels without the hook fall back to the leading ``window`` rows of
every inbound map (a ring buffer where new data lands at the front).

Degenerate contract: a 1-batch stream is executed as a literal
:meth:`~repro.runtime.runtime.HompRuntime.parallel_for` — no region, no
carry — so its single result is byte-identical (pickle-equal) to the
one-shot path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.engine.trace import OffloadResult
from repro.ir.lower import decl_for
from repro.ir.ops import DataDecl, StreamOp
from repro.obs.tracer import resolve_tracer
from repro.runtime.data_env import TargetDataRegion
from repro.util.ranges import IterRange

__all__ = ["StreamResult", "run_stream"]


@dataclass
class StreamResult:
    """Outcome of one streamed offload (all batches)."""

    kernel_name: str
    algorithm: str
    batches: int
    window: int
    #: One :class:`~repro.engine.trace.OffloadResult` per batch, in
    #: order.  ``total_time_s`` values are *cumulative* stream times.
    results: list[OffloadResult]
    #: Region-transfer totals across the whole stream.
    bytes_moved: float = 0.0
    bytes_elided: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def total_time_s(self) -> float:
        """End-to-end stream makespan (the last batch's finish time)."""
        return self.results[-1].total_time_s if self.results else 0.0

    @property
    def batch_times_s(self) -> list[float]:
        """Per-batch latency: deltas of the cumulative finish times."""
        out: list[float] = []
        prev = 0.0
        for r in self.results:
            out.append(r.total_time_s - prev)
            prev = r.total_time_s
        return out

    @property
    def throughput_batches_per_s(self) -> float:
        total = self.total_time_s
        return self.batches / total if total > 0 else 0.0

    @property
    def reductions(self) -> list[float | None]:
        return [r.reduction for r in self.results]


def _advance_stream(runtime, region, region_maps, op: StreamOp, batch: int) -> None:
    """Host-side refresh between batch ``batch - 1`` and ``batch``.

    The kernel's ``stream_advance`` hook (when present) mutates the host
    arrays and names the dirty dim-0 ranges; the fallback treats the
    leading ``window`` rows of every inbound map as refreshed.  Dirty
    rows are invalidated on every region device so the next batch's
    chunks re-pay exactly the delta through the residency ledger.
    """
    advance = getattr(op.template.kernel, "stream_advance", None)
    if advance is not None:
        dirty = advance(batch, op.window) or {}
    elif op.window > 0:
        dirty = {
            m.array: IterRange(0, op.window)
            for m in region_maps
            if m.direction.copies_in
        }
    else:
        return
    ledger = runtime.ledger
    for name, ranges in dirty.items():
        if isinstance(ranges, IterRange):
            ranges = [ranges]
        ranges = [r for r in ranges if not r.empty]
        if ranges:
            ledger.invalidate(region._ids, name, ranges)


def run_stream(
    runtime,
    op: StreamOp,
    decls: "dict[str, DataDecl] | None" = None,
    **kwargs,
) -> StreamResult:
    """Execute a :class:`~repro.ir.ops.StreamOp` on ``runtime``.

    ``kwargs`` are :meth:`HompRuntime.parallel_for`'s (cutoff_ratio,
    fault_plan, resilience, tracer, engine, record_events,
    scheduler keywords, ...), bound once for the whole stream; the
    fault plan's virtual-time windows apply over the *cumulative* stream
    timeline, so a slowdown window hits whichever batches run inside it
    and a mid-stream dropout kills the device for every later batch.
    """
    kernel = op.template.kernel
    kwargs = runtime._bind_op(op.template, kwargs)

    if op.batches == 1:
        # Degenerate stream: literally the one-shot path (no region, no
        # carry) — byte-identical to parallel_for.
        result = runtime.parallel_for(
            kernel,
            schedule=op.template.schedule,
            devices=op.devices,
            **kwargs,
        )
        return StreamResult(
            kernel_name=result.kernel_name,
            algorithm=result.algorithm,
            batches=1,
            window=op.window,
            results=[result],
            meta={"degenerate": True},
        )

    cutoff_ratio = kwargs.pop("cutoff_ratio", 0.0)
    tracer = resolve_tracer(kwargs.pop("tracer", None))

    # Un-hoisted (passes off): the template's maps are the region.
    region_maps = op.region_maps or op.template.maps
    arrays = {m.array: kernel.arrays[m.array] for m in region_maps}
    decls = dict(decls or {})
    for name in op.template.map_names:
        if name not in decls:
            decls[name] = decl_for(name, kernel.arrays[name])
    region = TargetDataRegion.from_ir(runtime, region_maps, arrays, devices=op.devices)

    results: list[OffloadResult] = []
    bytes_moved = bytes_elided = 0.0
    ir = (op.template, decls)
    untraced = nullcontext()
    carry = None  # each batch after the first starts where the last one left
    with region:
        bound = region._prepare(**kwargs)
        engine = bound.engine
        scheduler = runtime._resolve_scheduler(
            op.template.schedule, kernel, engine.machine, bound.sched_kwargs
        )
        with bound.lease:
            for k in range(op.batches):
                if k > 0:
                    _advance_stream(runtime, region, region_maps, op, k)
                with (
                    engine.configured(tracer=tracer.bind(batch=k))
                    if tracer.enabled else untraced
                ):
                    result = region._run_bound(
                        bound, kernel, scheduler, cutoff_ratio, ir,
                        carry_in=carry,
                    )
                result.meta["stream"] = {
                    "batch": k,
                    "batches": op.batches,
                    "window": op.window,
                }
                res = result.meta.get("residency")
                if res is not None:
                    bytes_moved += res["bytes_moved"]
                    bytes_elided += res["bytes_elided"]
                results.append(result)
                carry = engine.carry_out()

    return StreamResult(
        kernel_name=kernel.name,
        algorithm=scheduler.describe(),
        batches=op.batches,
        window=op.window,
        results=results,
        bytes_moved=bytes_moved,
        bytes_elided=bytes_elided,
        meta={
            "device_ids": list(bound.ids),
            "region_time_s": region.total_time_s,
            "pipelined": True,
        },
    )
