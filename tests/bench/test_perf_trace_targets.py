"""The perf benchmark's traced pass resolves ``repro`` callables by dotted
name and raises when one is gone; this runs that resolution in tier-1 so
a rename fails here, naming the row, not inside a benchmark child."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.sched.registry import SCHEDULERS

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "trace.py"


def test_every_traced_target_resolves_and_is_restored():
    spec = importlib.util.spec_from_file_location("_perf_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)

    tracer = trace.Tracer()
    tracer.install()  # LookupError names the first TARGETS row that is gone
    patched = list(tracer.installed)
    # The sched.* rows patch each class that *defines* the method, so a
    # ``next`` hoisted into a shared base is only timed if that base is
    # patched too: whatever the MRO resolves must be a patched definition.
    wrapped = {(owner, name) for owner, name, _ in patched}
    unwrapped = [
        f"{cls.__name__}.{name}"
        for cls in SCHEDULERS.values()
        for name in ("start", "next", "observe")
        if (next(c for c in cls.__mro__ if name in vars(c)), name) not in wrapped
    ]
    tracer.remove()
    assert not unwrapped, f"schedulers missing from the sched.* rows: {unwrapped}"

    assert len(patched) >= len(trace.TARGETS)
    assert not tracer.installed
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner!r}.{name} not restored"
