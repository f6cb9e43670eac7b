"""Regenerate every paper figure/table from the command line.

Usage::

    python -m repro.bench                # all figures, default scale
    python -m repro.bench fig5 table5    # a subset
    REPRO_BENCH_SCALE=full python -m repro.bench   # paper-size runs
    python -m repro.bench fig5 --trace traces/     # + Chrome traces/metrics

Writes each rendered table to stdout and, with ``--out DIR``, to files.
``--trace DIR`` additionally exports observability artifacts (Chrome
trace-event JSON per grid cell, JSONL span streams, Prometheus metrics —
see docs/OBSERVABILITY.md) for the grid-based figures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.figures import (
    fig5_gpu4,
    fig6_breakdown,
    fig7_speedup,
    fig8_cpu_mic,
    fig9_full_node,
    table4_characteristics,
    table5_cutoff,
)

GENERATORS = {
    "table4": table4_characteristics,
    "fig5": fig5_gpu4,
    "fig6": fig6_breakdown,
    "fig7": fig7_speedup,
    "fig8": fig8_cpu_mic,
    "fig9": fig9_full_node,
    "table5": table5_cutoff,
}

#: Grid-based generators that accept ``trace_dir`` (obs export).
TRACEABLE = frozenset({"fig5", "fig6", "fig8", "fig9"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        choices=[*GENERATORS, []],
        help=f"subset of {sorted(GENERATORS)} (default: all)",
    )
    parser.add_argument("--out", type=Path, help="also write tables to this directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace",
        type=Path,
        metavar="DIR",
        help=(
            "export observability artifacts (Chrome trace JSON, JSONL spans, "
            f"Prometheus metrics) for {sorted(TRACEABLE)} into DIR"
        ),
    )
    args = parser.parse_args(argv)

    targets = args.targets or list(GENERATORS)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in targets:
        kwargs = {} if name == "table4" else {"seed": args.seed}
        if name in TRACEABLE and args.trace is not None:
            kwargs["trace_dir"] = args.trace / name
        result = GENERATORS[name](**kwargs)
        print(result.text)
        print()
        if args.out:
            (args.out / f"{name}.txt").write_text(result.text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
