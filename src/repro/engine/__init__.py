"""Offload execution engine.

One chunk-lifecycle state machine (`repro.engine.core`) drives every
offload: scheduling decisions, fault draws and bounded retries, orphan
reassignment, quarantine, trace buckets, observability spans, coverage
and reduction accounting all live in the shared
:class:`~repro.engine.core.RunContext`.  The engine,
:class:`~repro.engine.simulator.OffloadEngine`, supplies only the
scheduling of events in time: it replays the paper's Fig. 4 proxy thread
per device in deterministic virtual time, with a three-stage pipeline
(copy-in / compute / copy-out engines) so multi-chunk schedulers overlap
data movement with computation like a real double-buffered runtime.
Besides ``run`` it has ``run_many``: a list of
:class:`~repro.engine.batch.BatchRequest` cells through one engine in one
call (same event loop, so byte-identical per cell), with numerics
switchable per cell so a grid executes them once per shared kernel.

A multi-node cluster is not an engine: :func:`~repro.cluster.engine.
run_cluster` composes one engine per node.

:func:`~repro.engine.core.make_backend` builds an engine (``"virtual"``
and ``"batch"`` both name ``OffloadEngine``); ``HompRuntime.parallel_for
(engine=...)`` runs on one already built.
"""

from repro.engine.trace import DeviceTrace, OffloadResult
from repro.engine.core import (
    ChunkPhase,
    EngineBase,
    LIFECYCLE,
    RunContext,
    StageTiming,
    make_backend,
)
from repro.engine.simulator import OffloadEngine
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
    "make_backend",
    "OffloadEngine",
    "BatchRequest",
    "ChunkEvent",
    "Timeline",
    "render_timeline",
]
