"""Figure regenerators, run at a tiny scale so the whole shape pipeline is
unit-tested without benchmark-scale cost.  The full-size qualitative
assertions live in benchmarks/."""

import pickle

import pytest

from repro.bench.figures import (
    _summarise_devices,
    fig6_breakdown,
    fig7_speedup,
    table4_characteristics,
)
from repro.bench.workloads import BENCH_SCALE_ENV


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv(BENCH_SCALE_ENV, "0.004")


def test_table4_structure():
    result = table4_characteristics()
    assert "MemComp" in result.text
    assert set(result.extra["classes"]) == {
        "axpy", "sum", "matvec", "matmul", "stencil", "bm"
    }


def test_fig6_produces_breakdowns_for_every_cell():
    result = fig6_breakdown()
    assert len(result.extra["imbalances"]) == 6 * 7
    for pct in (result.grid.results["axpy"]["BLOCK"].breakdown_pct(),):
        assert sum(pct.values()) == pytest.approx(100.0)


def test_fig7_series_normalised():
    result = fig7_speedup(max_gpus=2)
    for series in result.extra["speedups"].values():
        assert series[0] == 1.0
        assert len(series) == 2


def test_fig5_smoke():
    from repro.bench.figures import fig5_gpu4

    result = fig5_gpu4()
    assert result.grid is not None
    assert len(result.grid.results) == 6
    assert "Fig. 5" in result.text


def test_fig8_smoke():
    from repro.bench.figures import fig8_cpu_mic

    result = fig8_cpu_mic()
    assert result.grid.machine_name == "cpu2+mic2"


def test_fig9_smoke():
    from repro.bench.figures import fig9_full_node

    result = fig9_full_node()
    assert set(result.extra["cutoff_best_ms"]) == {
        "axpy", "matvec", "matmul", "stencil", "sum", "bm"
    }
    assert all(v > 0 for v in result.extra["cutoff_best_ms"].values())


def test_table5_smoke():
    from repro.bench.figures import table5_cutoff

    result = table5_cutoff()
    assert set(result.extra["speedups"]) == {
        "axpy", "sum", "matvec", "matmul", "stencil", "bm"
    }
    for names in result.extra["survivors"].values():
        assert names  # never empty


def test_fig6_breaks_down_fig5s_grid():
    from repro.bench.figures import fig5_gpu4

    fig5, fig6 = fig5_gpu4().grid, fig6_breakdown().grid
    assert list(fig6.results) == list(fig5.results)
    for kname, row in fig5.results.items():
        assert list(fig6.results[kname]) == list(row)
        for policy, result in row.items():
            assert pickle.dumps(fig6.results[kname][policy]) == pickle.dumps(
                result
            ), f"{kname}/{policy}"


def test_table5_cells_equal_fig9s(monkeypatch):
    """Table V's plain and CUTOFF cells are Fig. 9's grid and CUTOFF cells."""
    import repro.bench.figures as figures

    cutoff_cells: dict = {}
    run_cell = figures.run_cell

    def recording(machine, factory, policy, **options):
        result = run_cell(machine, factory, policy, **options)
        key = (factory.name, policy, options.get("cutoff_ratio", 0.0))
        cutoff_cells.setdefault(key, []).append(pickle.dumps(result))
        return result

    monkeypatch.setattr(figures, "run_cell", recording)
    fig9 = figures.fig9_full_node()
    fig9_cutoff = dict(cutoff_cells)
    cutoff_cells.clear()
    figures.table5_cutoff()
    assert {k for k in cutoff_cells if k[2]} == set(fig9_cutoff)
    for (kname, policy, cutoff), runs in cutoff_cells.items():
        want = (
            fig9_cutoff[kname, policy, cutoff][0] if cutoff
            else pickle.dumps(fig9.grid.results[kname][policy])
        )
        assert runs == [want], f"{kname}/{policy}/{cutoff}"


def test_summarise_devices():
    assert _summarise_devices(("cpu-0", "cpu-1", "k40-0")) == "2 CPUs + 1 GPU"
    assert _summarise_devices(("mic-0",)) == "1 MIC"


def test_cli_runs_single_target(capsys, tmp_path):
    from repro.bench.__main__ import main

    rc = main(["table4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table IV" in out
    assert (tmp_path / "table4.txt").exists()
