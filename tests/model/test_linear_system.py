"""Equal-completion-time partitioning (paper Eq. 1-3)."""

import pytest
from hypothesis import given, strategies as st

from repro.model.linear_system import solve_equal_time_partition


def test_identical_devices_split_evenly():
    sol = solve_equal_time_partition([1.0, 1.0, 1.0, 1.0], [0.0] * 4, 100)
    assert all(s == pytest.approx(25.0) for s in sol.shares)
    assert sol.t0 == pytest.approx(25.0)


def test_shares_proportional_to_rates():
    # device 1 is 3x faster
    sol = solve_equal_time_partition([3.0, 1.0], [0.0, 0.0], 400)
    assert sol.shares[0] == pytest.approx(100.0)
    assert sol.shares[1] == pytest.approx(300.0)


def test_equal_completion_property():
    per_iter = [0.5, 1.0, 2.0]
    fixed = [0.3, 0.1, 0.0]
    sol = solve_equal_time_partition(per_iter, fixed, 1000)
    times = [f + s * p for s, p, f in zip(sol.shares, per_iter, fixed)]
    active_times = [t for t, s in zip(times, sol.shares) if s > 0]
    assert max(active_times) - min(active_times) < 1e-9


def test_heavy_fixed_cost_device_dropped():
    # device 1 has a fixed cost exceeding any feasible T0
    sol = solve_equal_time_partition([1.0, 1.0], [0.0, 1e6], 10)
    assert sol.shares[1] == 0.0
    assert sol.shares[0] == pytest.approx(10.0)
    assert sol.active == (0,)


def test_all_devices_infeasible_falls_back_to_best_single():
    sol = solve_equal_time_partition([1.0, 2.0], [100.0, 50.0], 10)
    # device 1: 50 + 20 = 70 beats device 0: 100 + 10 = 110
    assert sol.shares == (0.0, 10.0)


def test_zero_iterations():
    sol = solve_equal_time_partition([1.0, 1.0], [0.0, 0.0], 0)
    assert sol.shares == (0.0, 0.0)
    assert sol.t0 == 0.0


def test_single_device_gets_everything():
    sol = solve_equal_time_partition([2.0], [5.0], 7)
    assert sol.shares == (7.0,)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        solve_equal_time_partition([], [], 10)
    with pytest.raises(ValueError):
        solve_equal_time_partition([1.0], [0.0, 0.0], 10)
    with pytest.raises(ValueError):
        solve_equal_time_partition([0.0], [0.0], 10)
    with pytest.raises(ValueError):
        solve_equal_time_partition([1.0], [-1.0], 10)
    with pytest.raises(ValueError):
        solve_equal_time_partition([1.0], [0.0], -5)


@given(
    n=st.integers(1, 10**6),
    per_iter=st.lists(st.floats(1e-9, 10, allow_nan=False), min_size=1, max_size=12),
    fixed=st.data(),
)
def test_property_shares_conserve_work(n, per_iter, fixed):
    costs = fixed.draw(
        st.lists(
            st.floats(0, 100, allow_nan=False),
            min_size=len(per_iter),
            max_size=len(per_iter),
        )
    )
    sol = solve_equal_time_partition(per_iter, costs, n)
    assert sum(sol.shares) == pytest.approx(n, rel=1e-9)
    assert all(s >= 0 for s in sol.shares)


@given(
    n=st.integers(10, 10**5),
    rates=st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=8),
)
def test_property_faster_devices_get_no_less(n, rates):
    per_iter = [1.0 / r for r in rates]
    sol = solve_equal_time_partition(per_iter, [0.0] * len(rates), n)
    order = sorted(range(len(rates)), key=lambda i: rates[i])
    for a, b in zip(order, order[1:]):
        assert sol.shares[a] <= sol.shares[b] + 1e-6
