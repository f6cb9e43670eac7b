#!/usr/bin/env python3
"""Visualising the offload pipeline: why dynamic chunking wins on AXPY.

Records the per-chunk pipeline events of a BLOCK offload and a
SCHED_DYNAMIC offload of the same data-intensive loop on 4 GPUs and draws
both as ASCII Gantt charts.  Under BLOCK, each device does one monolithic
copy-in -> compute -> copy-out sequence; under dynamic chunking the
copy-in of chunk k+1 runs while chunk k computes, which is exactly the
"overlapping of data movement and computation" the paper credits for
SCHED_DYNAMIC's Fig. 5 wins.

Each run is also traced: its Chrome trace (open it in Perfetto or
``chrome://tracing``), JSONL span stream and Prometheus metrics text are
written to a fresh temporary directory, whose path is printed last.

Run:  python examples/timeline.py
"""

import tempfile
from pathlib import Path

from repro import HompRuntime, gpu4_node, make_kernel
from repro.engine import render_timeline
from repro.obs import Tracer, write_chrome_trace, write_jsonl, write_prom

N = 2_000_000


def main() -> None:
    runtime = HompRuntime(gpu4_node(2))
    out = Path(tempfile.mkdtemp(prefix="homp-timeline-"))

    for schedule in ("BLOCK", "SCHED_DYNAMIC"):
        kernel = make_kernel("axpy", N)
        tracer = Tracer()
        result = runtime.parallel_for(
            kernel, schedule=schedule, record_events=True, tracer=tracer
        )
        timeline = result.meta["timeline"]
        overlap = timeline.device_overlap_fraction(0)
        print(f"== {result.algorithm}: {result.total_time_ms:.3f} ms "
              f"(transfer hidden under compute on dev 0: {overlap:.0%})")
        print(render_timeline(timeline, width=64))
        print()
        write_chrome_trace(tracer, out / f"{schedule}.trace.json")
        write_jsonl(tracer, out / f"{schedule}.spans.jsonl")
        write_prom(tracer.metrics, out / f"{schedule}.prom")

    print(f"traces written to {out} (load *.trace.json in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
