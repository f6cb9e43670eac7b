"""Hockney (alpha, beta) fitting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.model.hockney import fit_hockney


def hockney_time(nbytes, alpha, beta):
    return alpha + nbytes / beta


def test_fit_recovers_exact_constants():
    sizes = [2**k for k in range(10, 24)]
    times = [hockney_time(s, 15e-6, 11e9) for s in sizes]
    alpha, beta = fit_hockney(sizes, times)
    assert alpha == pytest.approx(15e-6, rel=1e-6)
    assert beta == pytest.approx(11e9, rel=1e-6)


def test_fit_with_noise_recovers_within_tolerance():
    rng = np.random.default_rng(0)
    sizes = [2**k for k in range(12, 27)]
    times = [hockney_time(s, 20e-6, 8e9) * rng.lognormal(0, 0.02) for s in sizes]
    alpha, beta = fit_hockney(sizes, times)
    assert beta == pytest.approx(8e9, rel=0.1)


def test_fit_clamps_tiny_negative_intercept():
    # bandwidth-only data has alpha == 0; noise can push the LSQ intercept
    # slightly negative, which must be clamped
    sizes = [1e6, 2e6, 4e6, 8e6]
    times = [s / 1e9 for s in sizes]
    times[0] *= 1.2  # tilt the fit
    alpha, beta = fit_hockney(sizes, times)
    assert alpha >= 0.0


def test_fit_needs_two_distinct_sizes():
    with pytest.raises(ValueError):
        fit_hockney([100, 100], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_hockney([100], [1.0])


def test_fit_rejects_negative_measurements():
    with pytest.raises(ValueError):
        fit_hockney([1, 2], [-1.0, 1.0])


def test_fit_rejects_decreasing_times():
    # strongly decreasing time with size implies negative bandwidth
    with pytest.raises(ValueError):
        fit_hockney([1e6, 2e6, 4e6], [3.0, 2.0, 1.0])


@given(
    alpha=st.floats(0, 1e-3, allow_nan=False),
    beta=st.floats(1e6, 1e12, allow_nan=False),
)
def test_property_fit_round_trips(alpha, beta):
    sizes = [2**k for k in range(10, 22)]
    times = [hockney_time(s, alpha, beta) for s in sizes]
    a, b = fit_hockney(sizes, times)
    assert b == pytest.approx(beta, rel=1e-3)
    # alpha recovery is ill-conditioned when alpha << transfer times
    if alpha > 1e-6:
        assert a == pytest.approx(alpha, rel=1e-2, abs=1e-7)
