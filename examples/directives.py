#!/usr/bin/env python3
"""The paper's Fig. 2 AXPY directives, parsed and executed.

``axpy_homp_v1`` aligns *computation with data*: the arrays are
BLOCK-partitioned by the map clauses and the loop distribution copies
their ranges (``dist_schedule(target:[ALIGN(x)])``).

``axpy_homp_v2`` aligns *data with computation*: the loop is distributed
by the AUTO policy (runtime-selected algorithm) and the arrays follow the
loop (``partition([ALIGN(loop)])``).

Both directive strings below are, modulo whitespace, the ones printed in
the paper; ``repro.lang`` parses them into the runtime's offload objects.
Each is then rendered back to pragma text and re-parsed, the
source-to-source round trip OMP2HMPP builds on.

The last directive carries HSTREAM's ``stream(batches=N, window=W)``
clause: the loop runs as N batches over a sliding window of rows, with
the mapped data kept resident on the devices between batches.

Run:  python examples/directives.py
"""

import numpy as np

from repro import HompRuntime, full_node, gpu4_node, make_kernel, parse_directive
from repro.lang.render import render_directive

V1 = """
#pragma omp parallel target device (*) \\
    map(tofrom: y[0:n] partition([BLOCK])) \\
    map(to: x[0:n] partition([BLOCK]), a, n)
"""
V1_LOOP = "#pragma omp parallel for distribute dist_schedule(target:[ALIGN(x)])"

V2 = """
#pragma omp parallel target device (*) \\
    map(tofrom: y[0:n] partition([ALIGN(loop)])) \\
    map(to: x[0:n] partition([ALIGN(loop)]), a, n)
"""
V2_LOOP = "#pragma omp parallel for distribute dist_schedule(target:[AUTO])"

STREAM = (
    "#pragma omp parallel target device(0:2) "
    "map(to: u_in[0:n][0:m] partition([BLOCK],[FULL]) halo(3,3)) "
    "stream(batches=4, window=8)"
)


def show(directive) -> None:
    print(f"  directives: {' '.join(directive.directives)}")
    print(f"  device:     {directive.device_clause}")
    for m in directive.maps:
        pol = ", ".join(str(p) for p in m.policies) or "(scalar)"
        print(f"  map {m.direction.value:6s} {m.name:3s} partition [{pol}]")


def round_trip(directive) -> None:
    """Render a parsed directive back to text; the text parses to it."""
    text = render_directive(directive)
    print(f"  rendered:   {text}")
    print(f"  round trip: {parse_directive(text) == directive}")


def run(name: str, data_directive: str, loop_directive: str) -> None:
    print(f"== {name} ==")
    d_data = parse_directive(data_directive)
    d_loop = parse_directive(loop_directive)
    show(d_data)
    print(f"  schedule:   {d_loop.dist_schedule.modifier}:"
          f"{d_loop.dist_schedule.policies[0]}")

    runtime = HompRuntime(full_node())
    kernel = make_kernel("axpy", 500_000)
    # Merge the two directives the way the compiler outlines the region:
    # data clauses from the target directive, schedule from the loop one.
    merged = d_data
    merged.dist_schedule = d_loop.dist_schedule
    round_trip(merged)
    result = runtime.offload(merged, kernel)
    ok = np.allclose(kernel.arrays["y"], kernel.reference()["y"])
    print(
        f"  -> {result.algorithm}: {result.total_time_ms:.3f} ms on "
        f"{result.devices_used} devices, verified={ok}"
    )
    print()


def stream() -> None:
    print("== stencil under a stream clause (HSTREAM) ==")
    directive = parse_directive(STREAM)
    print(f"  stream:     batches={directive.stream.batches}, "
          f"window={directive.stream.window}")
    round_trip(directive)
    kernel = make_kernel("stencil", 64, seed=2)
    result = HompRuntime(gpu4_node()).offload(STREAM, kernel)
    print(
        f"  -> {result.algorithm}: {len(result.results)} batches streamed in "
        f"{result.total_time_s * 1e3:.3f} ms"
    )
    print()


def main() -> None:
    run("axpy_homp_v1 (align computation with data)", V1, V1_LOOP)
    run("axpy_homp_v2 (align data with computation)", V2, V2_LOOP)
    stream()


if __name__ == "__main__":
    main()
