"""run_grid(trace_dir=...) artifacts, traced-vs-plain identity, and the CLI
flag."""

import json
import pickle

from repro.bench.runner import run_grid
from repro.bench.workloads import WorkloadFactory
from repro.machine.presets import gpu4_node


POLICIES = ("BLOCK", "SCHED_DYNAMIC")


def small_grid(trace_dir=None):
    return run_grid(
        gpu4_node(),
        {"axpy": WorkloadFactory("axpy", seed=0)},
        policies=POLICIES,
        trace_dir=trace_dir,
    )


def cell_bytes(grid):
    return [pickle.dumps(grid.results["axpy"][p]) for p in POLICIES]


def test_trace_dir_receives_all_artifacts(tmp_path):
    out = tmp_path / "traces"
    grid = small_grid(trace_dir=out)
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "axpy.BLOCK.jsonl",
        "axpy.BLOCK.trace.json",
        "axpy.SCHED_DYNAMIC.jsonl",
        "axpy.SCHED_DYNAMIC.trace.json",
        "metrics.prom",
    ]
    doc = json.loads((out / "axpy.BLOCK.trace.json").read_text())
    device_pids = {
        e["pid"]
        for e in doc["traceEvents"]
        if e["ph"] != "M" and e["pid"] > 0
    }
    assert device_pids == {1, 2, 3, 4}  # one pid per K40
    prom = (out / "metrics.prom").read_text()
    assert "# TYPE chunks_issued counter" in prom
    assert grid.time_ms("axpy", "BLOCK") > 0


def test_traced_results_identical(tmp_path):
    # Tracing is a side channel: every traced cell pickles like the plain one.
    assert cell_bytes(small_grid(trace_dir=tmp_path / "t")) == cell_bytes(
        small_grid()
    )


def test_cli_trace_flag_dispatches_to_traceable_targets(tmp_path, monkeypatch):
    import repro.bench.__main__ as cli

    calls = {}

    class FakeResult:
        text = "ok"

    def fake_fig5(*, seed, trace_dir=None):
        calls["fig5"] = (seed, trace_dir)
        return FakeResult()

    def fake_table5(*, seed):
        calls["table5"] = (seed,)
        return FakeResult()

    monkeypatch.setitem(cli.GENERATORS, "fig5", fake_fig5)
    monkeypatch.setitem(cli.GENERATORS, "table5", fake_table5)
    assert cli.main(["fig5", "table5", "--trace", str(tmp_path)]) == 0
    assert calls["fig5"] == (0, tmp_path / "fig5")
    assert calls["table5"] == (0,)  # non-traceable targets get no trace_dir
