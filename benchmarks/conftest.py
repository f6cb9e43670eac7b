"""Benchmark-suite helpers.

Every benchmark regenerates one figure or table of the paper, asserts its
qualitative shape, and writes the rendered text to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite a concrete
artefact.  Simulations are deterministic, so one round is meaningful;
``bench_once`` wraps ``benchmark.pedantic`` accordingly.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools to one thread BEFORE numpy loads: the kernels here
# issue thousands of small-array operations, and multi-threaded BLAS burns
# minutes of sys time in thread churn on them (the seed suite spent 3m29s
# of sys time this way).  Must happen at conftest import, which pytest
# guarantees precedes the test modules (and therefore the first `import
# numpy`).
_THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if "numpy" not in sys.modules:
    for _var in _THREAD_PINS:
        os.environ.setdefault(_var, "1")

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def bench_once(benchmark, results_dir):
    """Run ``fn`` once under pytest-benchmark and persist its text output."""

    def _run(fn, *, name: str):
        result = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
        text = getattr(result, "text", None)
        if text:
            (results_dir / f"{name}.txt").write_text(text + "\n")
        return result

    return _run
