"""Offload execution engine.

One chunk-lifecycle state machine (`repro.engine.core`) drives every
executor: scheduling decisions, fault draws and bounded retries, orphan
reassignment, quarantine, trace buckets, observability spans, coverage
and reduction accounting all live in the shared
:class:`~repro.engine.core.RunContext`.  Backends supply only the
scheduling of events in time; a closed table names them
(:func:`~repro.engine.core.resolve_backend`):

* ``"virtual"`` — :class:`~repro.engine.simulator.OffloadEngine` replays
  the paper's Fig. 4 proxy thread per device in deterministic virtual
  time, with a three-stage pipeline (copy-in / compute / copy-out
  engines) so multi-chunk schedulers overlap data movement with
  computation like a real double-buffered runtime.  Besides ``run`` it
  has ``run_many``: a list of :class:`~repro.engine.batch.BatchRequest`
  cells through one engine in one call (same event loop, so
  byte-identical per cell), with numerics switchable per cell so a grid
  executes them once per shared kernel.  ``"batch"`` names the same
  class.
* ``"threaded"`` — :class:`~repro.engine.threaded.ThreadedEngine` runs
  one real host thread per device on a wall clock, with the same
  fault/resilience semantics.

A multi-node cluster is not a backend: :func:`~repro.cluster.engine.
run_cluster` composes one ``"virtual"`` engine per node.

Select a backend with ``HompRuntime.parallel_for(executor=...)`` or
build one directly via :func:`~repro.engine.core.make_backend`.
"""

from repro.engine.trace import DeviceTrace, OffloadResult
from repro.engine.core import (
    ChunkPhase,
    EngineBase,
    ExecutionBackend,
    LIFECYCLE,
    RunContext,
    StageTiming,
    make_backend,
    resolve_backend,
)
from repro.engine.simulator import OffloadEngine
from repro.engine.threaded import ThreadedEngine
from repro.engine.batch import BatchRequest
from repro.engine.events import ChunkEvent, Timeline, render_timeline

__all__ = [
    "DeviceTrace",
    "OffloadResult",
    "ChunkPhase",
    "LIFECYCLE",
    "StageTiming",
    "RunContext",
    "EngineBase",
    "ExecutionBackend",
    "resolve_backend",
    "make_backend",
    "OffloadEngine",
    "ThreadedEngine",
    "BatchRequest",
    "ChunkEvent",
    "Timeline",
    "render_timeline",
]
