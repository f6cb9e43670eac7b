"""CI smokes of the directive front end and of observability.

* front end: pragma text -> ``run_program`` on one path, a stream clause
  inside a directive sequence included, and ``"batch"`` names the engine
  the perf harness builds;
* observability: a traced Fig. 5 cell yields a valid Chrome trace with one
  pid per participating device, and the same cell on a leased engine
  (the service pool's path) yields a byte-equal span stream.

Usage::

    PYTHONPATH=src python scripts/ci_smoke.py

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json

from repro.bench.runner import run_one
from repro.bench.workloads import WorkloadFactory
from repro.engine.core import make_backend
from repro.engine.simulator import OffloadEngine
from repro.ir.lower import from_directives
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.obs.tracer import Tracer
from repro.runtime import HompRuntime, StreamResult


def front_end_smoke() -> None:
    # The perf harness builds its batch engine by this name.
    assert type(make_backend("batch", gpu4_node())) is OffloadEngine

    # The one path, end to end: parse -> lower -> verify -> passes
    # -> run, a stream clause inside a directive sequence included.
    program = from_directives([
        ("#pragma omp parallel target device(*) "
         "map(to: x[0:n] partition([BLOCK])) "
         "distribute dist_schedule(target:[BLOCK])",
         make_kernel("axpy", 4096, seed=1)),
        ("#pragma omp parallel target device(0:2) "
         "stream(batches=3, window=8)", make_kernel("stencil", 64, seed=2)),
    ])
    results = HompRuntime(gpu4_node()).run_program(program)
    assert isinstance(results[1], StreamResult), results
    assert len(results[1].results) == 3
    assert results[1].meta["pipelined"] is True
    print(program.describe())
    print("front-end smoke OK:", results[0].algorithm,
          results[1].algorithm)


def obs_smoke() -> None:
    # One traced Fig. 5 cell must yield a valid Chrome trace with
    # one pid per participating device.
    tracer = Tracer()
    traced = run_one(gpu4_node(), WorkloadFactory("axpy")(),
                     "SCHED_DYNAMIC", tracer=tracer)
    doc = to_chrome_trace(tracer)
    json.dumps(doc)  # must be serialisable as-is
    pids = {e["pid"] for e in doc["traceEvents"]
            if e["ph"] != "M" and e["pid"] > 0}
    assert pids == {t.devid + 1 for t in traced.participating}, pids

    # The same cell on a leased engine (the service pool's path):
    # one event loop behind both, so the span stream is byte-equal.
    leased_tracer = Tracer()
    machine = gpu4_node()
    HompRuntime(machine).parallel_for(
        WorkloadFactory("axpy")(), schedule="SCHED_DYNAMIC",
        tracer=leased_tracer,
        engine=make_backend("batch", machine.subset(range(len(machine)))))
    assert to_jsonl(leased_tracer) == to_jsonl(tracer)
    print("obs smoke OK:", len(doc["traceEvents"]), "events")


if __name__ == "__main__":
    front_end_smoke()
    obs_smoke()
