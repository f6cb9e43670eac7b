"""Sweep cache: hit/miss behaviour, fingerprint sensitivity, disk layer,
and the cross-figure reuse the derived figures rely on."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bench.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    SweepCache,
    cache_mode,
    get_cache,
    reset_cache,
    result_key,
)
from repro.bench.runner import engine_run_count, run_cell, run_grid
from repro.bench.workloads import BENCH_SCALE_ENV, WorkloadFactory
from repro.machine.presets import cpu_mic_node, gpu4_node


@pytest.fixture(autouse=True)
def tiny_cached(monkeypatch, tmp_path):
    monkeypatch.setenv(BENCH_SCALE_ENV, "0.004")
    monkeypatch.setenv(CACHE_ENV, "mem")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    reset_cache()
    yield
    reset_cache()


def _runs_for(fn) -> int:
    before = engine_run_count()
    fn()
    return engine_run_count() - before


# ---------------------------------------------------------------- keys


def test_key_is_stable():
    m = gpu4_node()
    fp = WorkloadFactory("axpy").fingerprint()
    k1 = result_key(m, fp, "BLOCK", cutoff_ratio=0.0, seed=0, verify=True)
    k2 = result_key(m, fp, "BLOCK", cutoff_ratio=0.0, seed=0, verify=True)
    assert k1 == k2


def test_key_sensitive_to_version(monkeypatch):
    # The one result-schema version: a release invalidates old cells.
    import repro.bench.cache as cache_mod

    m = gpu4_node()
    fp = WorkloadFactory("axpy").fingerprint()
    kw = dict(cutoff_ratio=0.0, seed=0, verify=True)
    base = result_key(m, fp, "BLOCK", **kw)
    monkeypatch.setattr(cache_mod, "__version__", "test-bump")
    assert result_key(m, fp, "BLOCK", **kw) != base


def test_key_sensitive_to_machine():
    fp = WorkloadFactory("axpy").fingerprint()
    kw = dict(cutoff_ratio=0.0, seed=0, verify=True)
    assert result_key(gpu4_node(), fp, "BLOCK", **kw) != result_key(
        cpu_mic_node(), fp, "BLOCK", **kw
    )
    assert result_key(gpu4_node(), fp, "BLOCK", **kw) != result_key(
        gpu4_node(2), fp, "BLOCK", **kw
    )


def test_key_sensitive_to_workload_seed_and_scale(monkeypatch):
    m = gpu4_node()
    kw = dict(cutoff_ratio=0.0, seed=0, verify=True)
    fp0 = WorkloadFactory("axpy", seed=0).fingerprint()
    fp1 = WorkloadFactory("axpy", seed=1).fingerprint()
    assert result_key(m, fp0, "BLOCK", **kw) != result_key(m, fp1, "BLOCK", **kw)
    monkeypatch.setenv(BENCH_SCALE_ENV, "0.008")
    fp_scaled = WorkloadFactory("axpy", seed=0).fingerprint()
    assert result_key(m, fp0, "BLOCK", **kw) != result_key(
        m, fp_scaled, "BLOCK", **kw
    )


def test_key_sensitive_to_policy_cutoff_and_engine_flags():
    m = gpu4_node()
    fp = WorkloadFactory("axpy").fingerprint()
    base = result_key(m, fp, "BLOCK", cutoff_ratio=0.0, seed=0, verify=True)
    assert base != result_key(
        m, fp, "SCHED_DYNAMIC", cutoff_ratio=0.0, seed=0, verify=True
    )
    assert base != result_key(
        m, fp, "BLOCK", cutoff_ratio=0.15, seed=0, verify=True
    )


def test_key_sensitive_to_fault_plan(monkeypatch):
    from repro.faults.plan import FAULTS_ENV, FaultPlan, Slowdown
    from repro.faults.policy import ResiliencePolicy, RetryPolicy

    monkeypatch.delenv(FAULTS_ENV, raising=False)
    m = gpu4_node()
    fp = WorkloadFactory("axpy").fingerprint()
    base = result_key(m, fp, "BLOCK")
    plan = FaultPlan.of(Slowdown(devid=1, factor=4.0), name="straggler")
    faulted = result_key(m, fp, "BLOCK", fault_plan=plan)
    assert faulted != base

    # a different plan, and a different resilience policy, key differently
    other = FaultPlan.of(Slowdown(devid=1, factor=2.0), name="straggler")
    assert result_key(m, fp, "BLOCK", fault_plan=other) != faulted
    strict = ResiliencePolicy(retry=RetryPolicy(max_retries=1))
    assert result_key(m, fp, "BLOCK", fault_plan=plan, resilience=strict) != faulted

    # an empty plan, or any plan while injection is disabled, is the
    # fault-free experiment and must share its key
    assert result_key(m, fp, "BLOCK", fault_plan=FaultPlan()) == base
    monkeypatch.setenv(FAULTS_ENV, "off")
    assert result_key(m, fp, "BLOCK", fault_plan=plan) == base


def test_faulted_cell_cached_separately():
    from repro.faults.plan import FaultPlan, Slowdown

    m = gpu4_node()
    f = WorkloadFactory("axpy")
    plan = FaultPlan.of(Slowdown(devid=1, factor=4.0), name="straggler")
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 1
    # the faulted cell is a different experiment: first run misses
    assert _runs_for(lambda: run_cell(m, f, "BLOCK", fault_plan=plan)) == 1
    # both are now cached independently
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 0
    assert _runs_for(lambda: run_cell(m, f, "BLOCK", fault_plan=plan)) == 0
    clean = run_cell(m, f, "BLOCK")
    faulted = run_cell(m, f, "BLOCK", fault_plan=plan)
    assert faulted.total_time_s > clean.total_time_s


# --------------------------------------------------------- hit / miss


def test_run_cell_hits_cache_on_repeat():
    m = gpu4_node()
    f = WorkloadFactory("axpy")
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 1
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 0
    stats = get_cache().stats
    assert stats.mem_hits == 1 and stats.misses == 1 and stats.puts == 1


def test_cached_result_is_bit_identical():
    m = gpu4_node()
    f = WorkloadFactory("sum")
    r1 = run_cell(m, f, "SCHED_DYNAMIC")
    r2 = run_cell(m, f, "SCHED_DYNAMIC")
    assert r2.total_time_s == r1.total_time_s
    assert r2.reduction == r1.reduction
    assert [t.busy_s for t in r2.traces] == [t.busy_s for t in r1.traces]


def test_cache_hit_returns_isolated_copy():
    m = gpu4_node()
    f = WorkloadFactory("sum")
    r1 = run_cell(m, f, "BLOCK")
    r1.reduction = 0.0  # caller mutates its copy...
    r2 = run_cell(m, f, "BLOCK")
    assert r2.reduction != 0.0  # ...without poisoning the cache


def test_cache_off_disables_everything(monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "off")
    reset_cache()
    assert cache_mode() == "off"
    m = gpu4_node()
    f = WorkloadFactory("axpy")
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 1
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 1
    stats = get_cache().stats
    assert stats.mem_hits == 0 and stats.puts == 0


def test_anonymous_factories_are_never_cached():
    from repro.kernels.registry import make_kernel

    m = gpu4_node()
    factory = lambda: make_kernel("axpy", 400)  # noqa: E731
    assert _runs_for(lambda: run_cell(m, factory, "BLOCK")) == 1
    assert _runs_for(lambda: run_cell(m, factory, "BLOCK")) == 1


def test_run_grid_serves_repeat_from_cache():
    m = gpu4_node()
    ks = {"axpy": WorkloadFactory("axpy"), "sum": WorkloadFactory("sum")}
    pols = ("BLOCK", "SCHED_DYNAMIC")
    g1_runs = _runs_for(lambda: run_grid(m, ks, policies=pols))
    assert g1_runs == 4
    assert _runs_for(lambda: run_grid(m, ks, policies=pols)) == 0


def test_grid_and_cell_share_keys():
    """table5's no-cutoff cells reuse fig9's grid cells — same key space."""
    m = gpu4_node()
    f = WorkloadFactory("matvec")
    run_grid(m, {"matvec": f}, policies=("MODEL_1_AUTO",))
    assert _runs_for(lambda: run_cell(m, f, "MODEL_1_AUTO")) == 0


# ---------------------------------------------------------- disk layer


def test_disk_layer_survives_memory_reset(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, "on")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "disk"))
    reset_cache()
    m = gpu4_node()
    f = WorkloadFactory("axpy")
    r1 = run_cell(m, f, "BLOCK")
    assert (tmp_path / "disk").exists()
    reset_cache()  # drop the in-memory layer, keep the directory
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 0
    assert get_cache().stats.disk_hits == 1
    r2 = run_cell(m, f, "BLOCK")
    assert r2.total_time_s == r1.total_time_s


def test_corrupt_disk_entry_is_a_miss(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, "on")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "disk"))
    reset_cache()
    m = gpu4_node()
    f = WorkloadFactory("axpy")
    run_cell(m, f, "BLOCK")
    for p in (tmp_path / "disk").rglob("*.pkl"):
        p.write_bytes(b"not a pickle")
    reset_cache()
    assert _runs_for(lambda: run_cell(m, f, "BLOCK")) == 1


def test_mem_mode_never_touches_disk(tmp_path):
    # autouse fixture sets CACHE_ENV=mem, so the disk layer must stay cold
    cache = SweepCache(directory=tmp_path / "never")
    m = gpu4_node()
    run_cell(m, WorkloadFactory("axpy"), "BLOCK", cache=cache)
    run_cell(m, WorkloadFactory("axpy"), "BLOCK", cache=cache)
    assert not (tmp_path / "never").exists()
    assert cache.stats.mem_hits == 1


# ------------------------------------------------ derived-figure reuse


def test_fig6_derives_from_fig5_grid():
    from repro.bench.figures import fig5_gpu4, fig6_breakdown

    fig5_runs = _runs_for(fig5_gpu4)
    assert fig5_runs == 6 * 7
    assert _runs_for(fig6_breakdown) == 0  # entirely served from fig5's cells


def test_table5_derives_from_fig9_cells():
    from repro.bench.figures import fig9_full_node, table5_cutoff

    fig9_runs = _runs_for(fig9_full_node)
    assert fig9_runs == 6 * 7 + 6 * 4  # grid + cutoff column
    assert _runs_for(table5_cutoff) == 0  # both r0 and r1 hit fig9's keys


# ------------------------------------------------ the one cell rule


def test_cell_key_is_result_key_for_a_keyed_cell():
    from repro.bench.cache import cell_key

    m, f = gpu4_node(), WorkloadFactory("axpy", seed=3)
    assert cell_key(
        get_cache(), m, f, "BLOCK", cutoff_ratio=0.15, seed=2, verify=False,
    ) == result_key(
        m, f.fingerprint(), "BLOCK", cutoff_ratio=0.15, seed=2, verify=False
    )


@pytest.mark.parametrize(
    "change",
    [
        {"cutoff_ratio": "auto"},
        {"policy": object()},
        {"factory": lambda: None},
    ],
    ids=["auto-cutoff", "policy-object", "lambda"],
)
def test_cell_key_leaves_a_cell_unkeyed(change):
    from repro.bench.cache import cell_key

    args = {"factory": WorkloadFactory("axpy"), "policy": "BLOCK", **change}
    factory, policy = args.pop("factory"), args.pop("policy")
    assert cell_key(get_cache(), gpu4_node(), factory, policy, **args) is None


@pytest.mark.parametrize("entry", ["run_cell", "run_grid"])
def test_auto_cutoff_cell_is_unkeyed_and_runs(entry):
    """cutoff_ratio="auto" resolves against the devices at run time, so
    the cell has no key: it runs (the key used to be float("auto"))."""
    m, spy = gpu4_node(), SweepCache()
    kw = dict(cutoff_ratio="auto", seed=1, cache=spy)
    if entry == "run_cell":
        named = run_cell(m, WorkloadFactory("axpy", seed=1), "MODEL_1_AUTO", **kw)
        anon = run_cell(m, lambda: WorkloadFactory("axpy", seed=1)(), "MODEL_1_AUTO", **kw)
    else:
        named, anon = (
            run_grid(m, {"axpy": f}, policies=("MODEL_1_AUTO",), **kw)
            .results["axpy"]["MODEL_1_AUTO"]
            for f in (
                WorkloadFactory("axpy", seed=1),
                lambda: WorkloadFactory("axpy", seed=1)(),
            )
        )
    assert pickle.dumps(named) == pickle.dumps(anon)
    assert spy.stats.puts == 0 and spy.stats.hits == 0


def test_cache_off_never_fingerprints(monkeypatch):
    """With the cache off the rule answers before any identity work."""

    class Loud(WorkloadFactory):
        def fingerprint(self):
            raise AssertionError("fingerprint() called with the cache off")

    monkeypatch.setenv(CACHE_ENV, "off")
    m = gpu4_node()
    monkeypatch.setattr(
        type(m), "to_dict",
        lambda self: (_ for _ in ()).throw(AssertionError("to_dict called")),
    )
    assert run_cell(m, Loud("axpy"), "BLOCK").total_time_s > 0
