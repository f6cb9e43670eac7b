"""parallel_for_many up-front batch validation, message for message.

A malformed cell must be named by index before any engine work starts —
these tests pin the exact error text the service and sweep runner rely
on when they surface batch failures to tenants.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.core import make_backend
from repro.errors import OffloadError, SchedulingError
from repro.kernels.registry import make_kernel
from repro.runtime.runtime import HompRuntime, OffloadSpec


@pytest.fixture
def rt(gpu4):
    return HompRuntime(gpu4, seed=0)


def spec(**kw):
    kw.setdefault("kernel", make_kernel("axpy", 256, seed=0))
    kw.setdefault("schedule", "BLOCK")
    return OffloadSpec(**kw)


def test_non_iterable_specs(rt):
    with pytest.raises(SchedulingError,
                       match="expects a list of OffloadSpec, got int"):
        rt.parallel_for_many(7)


def test_empty_spec_list(rt):
    with pytest.raises(SchedulingError, match="empty spec list"):
        rt.parallel_for_many([])


def test_wrong_spec_type_names_index(rt):
    with pytest.raises(
        SchedulingError,
        match=r"specs\[1\] is str, expected OffloadSpec",
    ):
        rt.parallel_for_many([spec(), "not-a-spec"])


def test_wrong_kernel_type_names_index(rt):
    with pytest.raises(
        SchedulingError,
        match=r"specs\[0\]\.kernel is dict, expected a LoopKernel",
    ):
        rt.parallel_for_many([spec(kernel={"n": 4})])


def test_non_numeric_cutoff_names_index(rt):
    with pytest.raises(
        SchedulingError,
        match=r"specs\[1\]\.cutoff_ratio 'half' is not a fraction or 'auto'",
    ):
        rt.parallel_for_many([spec(), spec(cutoff_ratio="half")])


def test_out_of_range_cutoff_names_index(rt):
    with pytest.raises(
        SchedulingError,
        match=r"specs\[0\]\.cutoff_ratio 1\.5 is outside \[0, 1\)",
    ):
        rt.parallel_for_many([spec(cutoff_ratio=1.5)])


@pytest.mark.parametrize("bad", [1.0, -0.2])
def test_cutoff_range_is_half_open_like_parallel_for(rt, bad):
    # One rule for both entry points: 1.0 used to pass this door and only
    # fail inside the engine.
    with pytest.raises(
        SchedulingError,
        match=rf"specs\[1\]\.cutoff_ratio {bad} is outside \[0, 1\)",
    ):
        rt.parallel_for_many([spec(), spec(cutoff_ratio=bad)])


def test_cutoff_auto_passes_validation(rt):
    results = rt.parallel_for_many([spec(cutoff_ratio="auto")])
    assert len(results) == 1


def test_bad_execute_numerically_names_index(rt):
    with pytest.raises(
        SchedulingError,
        match=r"specs\[2\]\.execute_numerically is 'yes'",
    ):
        rt.parallel_for_many(
            [spec(), spec(), spec(execute_numerically="yes")]
        )


def test_validation_runs_before_any_execution(rt):
    """The good first cell's kernel must stay untouched when a later
    cell is rejected — validation is all-or-nothing, up front."""
    kernel = make_kernel("axpy", 256, seed=0)
    with pytest.raises(SchedulingError, match=r"specs\[1\]"):
        rt.parallel_for_many([spec(kernel=kernel), None])
    assert kernel.stats.chunks == 0


def test_generator_specs_are_accepted(rt):
    """Validation listifies: a generator input still works end to end."""
    results = rt.parallel_for_many(s for s in (spec(), spec()))
    assert len(results) == 2


def test_parallel_for_many_runs_on_a_built_or_leased_engine(gpu4):
    """The batch form has one run loop, `OffloadEngine.run_many`, on the
    engine it builds or on a leased one, byte-identical to a solo run;
    anything but an OffloadEngine is refused before anything runs."""
    rt = HompRuntime(gpu4)
    selected = gpu4.subset(range(len(gpu4)))
    (default,) = rt.parallel_for_many([spec()])
    (leased,) = rt.parallel_for_many(
        [spec()], engine=make_backend("batch", selected)
    )
    solo = rt.parallel_for(make_kernel("axpy", 256, seed=0), schedule="BLOCK")
    assert pickle.dumps(default) == pickle.dumps(leased) == pickle.dumps(solo)

    class DuckEngine:
        machine = selected

        def configured(self, **options):
            raise AssertionError("a refused engine is never configured")

        def run_many(self, requests):
            raise AssertionError("a refused engine never runs")

    kernel = make_kernel("axpy", 256, seed=0)
    with pytest.raises(OffloadError, match="expects an OffloadEngine"):
        rt.parallel_for_many([spec(kernel=kernel)], engine=DuckEngine())
    assert kernel.stats.chunks == 0
