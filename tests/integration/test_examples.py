"""Every example script runs to completion and prints what it promises."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "AXPY" in out
    assert "verified" in out
    assert "Best:" in out


def test_directives():
    out = run_example("directives.py")
    assert "axpy_homp_v1" in out and "axpy_homp_v2" in out
    assert "verified=True" in out
    assert "ALIGN(x)" in out
    # Each directive renders back to pragma text that parses to itself.
    assert out.count("round trip: True") == 3
    assert "round trip: False" not in out
    assert ("rendered:   #pragma omp parallel target device(*) "
            "map(tofrom: y[0:n] partition([BLOCK])) "
            "map(to: x[0:n] partition([BLOCK]), a, n) "
            "dist_schedule(target:[ALIGN(x)])") in out
    # The stream clause runs its batches.
    assert "stream:     batches=4, window=8" in out
    assert "4 batches streamed" in out


def test_jacobi_solver():
    out = run_example("jacobi_solver.py")
    assert out.count("matches serial: True") == 3


def test_device_selection():
    out = run_example("device_selection.py")
    assert "device(0:*:NVGPU" in out
    assert "cutoff" in out.lower()


def test_custom_machine():
    out = run_example("custom_machine.py")
    assert "microbenchmarked" in out
    assert "selector heuristics" in out.lower()


def test_timeline():
    out = run_example("timeline.py")
    assert "BLOCK" in out and "SCHED_DYNAMIC" in out
    assert "timeline:" in out
    # the Gantt rows actually render activity
    assert "ccc" in out or " c" in out
    # each run's trace, span stream and metrics text land in one directory
    (line,) = [ln for ln in out.splitlines() if ln.startswith("traces written to ")]
    out_dir = Path(line.split()[3])
    try:
        for schedule in ("BLOCK", "SCHED_DYNAMIC"):
            for suffix in (".trace.json", ".spans.jsonl", ".prom"):
                assert (out_dir / f"{schedule}{suffix}").stat().st_size > 0
        trace = json.loads((out_dir / "SCHED_DYNAMIC.trace.json").read_text())
        assert any(ev["ph"] == "X" for ev in trace["traceEvents"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def test_history_tuning():
    out = run_example("history_tuning.py")
    assert "HISTORY_AUTO" in out
    assert "speedup over MODEL_1" in out


def test_blas_workflow():
    out = run_example("blas_workflow.py")
    assert "with target data" in out
    assert "verified vs NumPy" in out
