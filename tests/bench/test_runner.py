"""Grid runner and result verification."""

import pytest

from repro.bench.runner import PolicyGrid, run_grid, run_one, verify_result
from repro.engine.trace import OffloadResult
from repro.errors import OffloadError
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node


def test_run_one_verifies_by_default():
    r = run_one(gpu4_node(), make_kernel("axpy", 500), "BLOCK")
    assert isinstance(r, OffloadResult)


def test_verify_catches_corruption():
    k = make_kernel("axpy", 500)
    r = run_one(gpu4_node(), k, "BLOCK", verify=False)
    k.arrays["y"][0] += 1.0
    with pytest.raises(OffloadError):
        verify_result(k, r)


def test_verify_reduction():
    k = make_kernel("sum", 500)
    r = run_one(gpu4_node(), k, "SCHED_DYNAMIC")
    verify_result(k, r)
    r.reduction = 0.0
    with pytest.raises(OffloadError):
        verify_result(k, r)


def test_grid_runs_all_cells():
    grid = run_grid(
        gpu4_node(),
        {"axpy": lambda: make_kernel("axpy", 400),
         "sum": lambda: make_kernel("sum", 400)},
        policies=("BLOCK", "SCHED_DYNAMIC"),
    )
    assert set(grid.results) == {"axpy", "sum"}
    assert grid.time_ms("axpy", "BLOCK") > 0


def test_grid_best_policy():
    grid = run_grid(
        gpu4_node(),
        {"axpy": lambda: make_kernel("axpy", 400)},
        policies=("BLOCK", "SCHED_DYNAMIC"),
    )
    best = grid.best_policy("axpy")
    assert best in ("BLOCK", "SCHED_DYNAMIC")
    other = "SCHED_DYNAMIC" if best == "BLOCK" else "BLOCK"
    assert grid.time_ms("axpy", best) <= grid.time_ms("axpy", other)


def test_grid_rows_shape():
    grid = run_grid(
        gpu4_node(),
        {"axpy": lambda: make_kernel("axpy", 400)},
        policies=("BLOCK",),
    )
    rows = grid.rows()
    assert rows == [["axpy", grid.time_ms("axpy", "BLOCK")]]


def test_verify_refuses_a_reduction_kernel_without_a_reduction():
    """A reference naming ``__reduction__`` is checked like a scalar one: a
    result that carries no reduction fails, it does not silently pass."""
    import dataclasses

    import numpy as np

    from repro.apps.jacobi import JacobiSweepKernel

    rng = np.random.default_rng(1)
    u = rng.standard_normal((20, 20))
    k = JacobiSweepKernel(
        u, u.copy(), rng.standard_normal((20, 20)),
        ax=1.0, ay=1.0, b=-5.0, omega=0.8,
    )
    r = run_one(gpu4_node(), k, "BLOCK")  # verifies arrays and reduction
    assert r.reduction is not None
    with pytest.raises(OffloadError, match="reduction None != reference"):
        verify_result(k, dataclasses.replace(r, reduction=None))
    with pytest.raises(OffloadError, match="reduction"):
        verify_result(k, dataclasses.replace(r, reduction=r.reduction + 1.0))
