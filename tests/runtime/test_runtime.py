"""HompRuntime: device selection, schedule resolution, cutoff handling,
and the directive front-end."""

import pickle
import re

import numpy as np
import pytest

from repro.dist.policy import Align, Auto, Block, Full
from repro.errors import DeviceError, OffloadError, SchedulingError
from repro.ir.lower import from_directives
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.runtime.runtime import HompRuntime
from repro.sched.dynamic import DynamicScheduler


@pytest.fixture
def rt():
    return HompRuntime(full_node())


@pytest.mark.parametrize("seed", [True, False, 1.0, "1", None])
def test_seed_must_be_an_int(seed):
    # A bool seed would be stamped into meta["seed"] and change the pickle.
    with pytest.raises(TypeError, match="seed"):
        HompRuntime(gpu4_node(), seed=seed)


class TestDeviceSelection:
    def test_none_selects_all(self, rt):
        assert rt.select_devices(None) == list(range(8))

    def test_star_selects_all(self, rt):
        assert rt.select_devices("*") == list(range(8))

    def test_clause_string(self, rt):
        assert rt.select_devices("device(0:*:NVGPU)") == [2, 3, 4, 5]

    def test_id_list(self, rt):
        assert rt.select_devices([1, 3]) == [1, 3]

    def test_bad_id(self, rt):
        with pytest.raises(DeviceError):
            rt.select_devices([42])

    def test_empty_list(self, rt):
        with pytest.raises(DeviceError):
            rt.select_devices([])

    def test_integer_like_ids_accepted(self, rt):
        assert rt.select_devices([np.int64(1), np.int32(3)]) == [1, 3]
        assert all(type(i) is int for i in rt.select_devices([np.int64(1)]))

    @pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, 1.5, "1", None])
    def test_non_integer_id_rejected(self, bad):
        """``True`` used to select device 1 (a submachine named
        ``gpu4[True]``); floats failed with a raw ``TypeError``."""
        rt = HompRuntime(gpu4_node())
        with pytest.raises(DeviceError, match=re.escape(f"device id {bad!r}")):
            rt.select_devices([0, bad])
        with pytest.raises(DeviceError, match="not an integer"):
            rt.parallel_for(make_kernel("axpy", 1000), devices=[bad])

    def test_duplicate_id_rejected(self, rt):
        with pytest.raises(DeviceError, match="device id 2 selected more than once"):
            rt.select_devices([1, 2, 2])

    def test_effective_device_count_collapses_hosts(self, rt):
        # the paper's "considering 2 CPUs as one host device": 1 + 6 = 7
        assert rt.effective_device_count() == 7
        assert rt.effective_device_count([2, 3]) == 2
        assert rt.effective_device_count([0, 1]) == 1


class TestScheduleResolution:
    def test_notation_string(self, rt):
        r = rt.parallel_for(make_kernel("axpy", 1000), schedule="BLOCK")
        assert r.algorithm == "BLOCK"

    def test_auto_uses_selector(self, rt):
        r = rt.parallel_for(make_kernel("axpy", 1000), schedule="AUTO")
        assert r.algorithm.startswith("MODEL_2_AUTO")

    def test_auto_policy_object(self, rt):
        r = rt.parallel_for(make_kernel("matvec", 64), schedule=Auto())
        assert r.algorithm.startswith("SCHED_DYNAMIC")

    def test_align_policy_object(self, rt):
        k = make_kernel("axpy", 800)
        k.set_partition("x", Block())
        r = rt.parallel_for(k, schedule=Align("x"))
        assert r.algorithm == "ALIGN(x)"
        assert np.allclose(k.arrays["y"], k.reference()["y"])

    def test_scheduler_instance(self, rt):
        r = rt.parallel_for(
            make_kernel("axpy", 1000), schedule=DynamicScheduler(0.5)
        )
        assert r.algorithm == "SCHED_DYNAMIC,50%"

    def test_kwargs_forwarded(self, rt):
        r = rt.parallel_for(
            make_kernel("axpy", 1000), schedule="SCHED_DYNAMIC", chunk_pct=0.25
        )
        assert r.algorithm == "SCHED_DYNAMIC,25%"

    @pytest.mark.parametrize("schedule,kwargs", [
        ("SCHED_DYNAMIC", {"chunk_pct": True}),
        ("WORK_STEALING", {"chunk_pct": True}),
        ("SCHED_GUIDED", {"first_pct": True}),
        ("STREAM_REBALANCE", {"alpha": True}),
        ("SCHED_GUIDED", {"min_chunk": 2.5}),
        ("SCHED_GUIDED", {"min_chunk": True}),
        ("WORK_STEALING", {"min_steal": 2.5}),
        ("WORK_STEALING", {"min_steal": True}),
    ])
    def test_scheduler_keyword_type_checked(self, rt, schedule, kwargs):
        # A bool is not a fraction or a count, and a count is an integer.
        kernel = make_kernel("axpy", 1000)
        with pytest.raises(SchedulingError, match=next(iter(kwargs))):
            rt.parallel_for(kernel, schedule=schedule, **kwargs)
        assert kernel.stats.chunks == 0

    def test_bad_schedule(self, rt):
        with pytest.raises(SchedulingError):
            rt.parallel_for(make_kernel("axpy", 100), schedule=3.14)

    def test_block_policy_object_is_the_block_schedule(self, rt):
        # Table I's BLOCK names a Table II algorithm: the policy object
        # resolves through the same string path as its notation.
        by_policy = rt.parallel_for(make_kernel("axpy", 100), schedule=Block())
        by_name = rt.parallel_for(make_kernel("axpy", 100), schedule="BLOCK")
        assert pickle.dumps(by_policy) == pickle.dumps(by_name)

    def test_dist_schedule_block_directive_runs(self, rt):
        # dist_schedule(target:[BLOCK]) is the myhomp dist_iteration(BLOCK).
        text = "omp parallel target device(*)"
        by_clause = rt.offload(
            text + " distribute dist_schedule(target:[BLOCK])",
            make_kernel("axpy", 100),
        )
        by_keyword = rt.offload(text, make_kernel("axpy", 100), schedule="BLOCK")
        assert by_clause.algorithm == "BLOCK"
        assert pickle.dumps(by_clause) == pickle.dumps(by_keyword)

    def test_auto_policy_object_is_the_auto_schedule(self, rt):
        by_policy = rt.parallel_for(make_kernel("matvec", 200), schedule=Auto())
        by_name = rt.parallel_for(make_kernel("matvec", 200), schedule="AUTO")
        assert pickle.dumps(by_policy) == pickle.dumps(by_name)

    @pytest.mark.parametrize("policy", [Full()])
    def test_policy_naming_no_algorithm_rejected(self, rt, policy):
        with pytest.raises(
            SchedulingError, match=f"policy {re.escape(str(policy))} is not a loop schedule"
        ):
            rt.parallel_for(make_kernel("axpy", 100), schedule=policy)


class TestCutoff:
    def test_auto_ratio_uses_effective_count(self, rt):
        r = rt.parallel_for(
            make_kernel("matmul", 256), schedule="MODEL_1_AUTO", cutoff_ratio="auto"
        )
        assert r.algorithm.endswith("14%")  # 1/7

    def test_cutoff_silently_ignored_for_chunk_algorithms(self, rt):
        # Table II: cutoff applies only to model/profile algorithms
        r = rt.parallel_for(
            make_kernel("axpy", 1000), schedule="BLOCK", cutoff_ratio=0.5
        )
        assert r.devices_used == 8

    def test_cutoff_drops_devices(self, rt):
        r = rt.parallel_for(
            make_kernel("matmul", 512), schedule="MODEL_1_AUTO", cutoff_ratio=0.15
        )
        names = {t.name for t in r.participating}
        # the slow hosts fall below the bar; every GPU stays
        assert not any(n.startswith("cpu") for n in names)
        assert {"k40-0", "k40-1", "k40-2", "k40-3"} <= names

    @pytest.mark.parametrize(
        "bad,why",
        [
            ("half", "'half' is not a fraction or 'auto'"),
            (1.0, r"1\.0 is outside \[0, 1\)"),
            (-0.2, r"-0\.2 is outside \[0, 1\)"),
        ],
    )
    def test_bad_cutoff_is_a_typed_error(self, rt, bad, why):
        # The same rule and message shape parallel_for_many reports
        # (tests/runtime/test_many_validation.py), without the index.
        with pytest.raises(SchedulingError, match=f"^cutoff_ratio {why}"):
            rt.parallel_for(
                make_kernel("axpy", 100), schedule="BLOCK", cutoff_ratio=bad
            )


class TestDeviceSubsets:
    def test_gpus_only(self, rt):
        k = make_kernel("axpy", 1000)
        r = rt.parallel_for(k, schedule="BLOCK", devices="device(0:*:NVGPU)")
        assert r.devices_used == 4
        assert {t.name for t in r.participating} == {"k40-0", "k40-1", "k40-2", "k40-3"}
        assert np.allclose(k.arrays["y"], k.reference()["y"])

    def test_result_meta_records_ids(self, rt):
        r = rt.parallel_for(make_kernel("axpy", 100), schedule="BLOCK", devices=[0, 2])
        assert r.meta["device_ids"] == [0, 2]


class TestDirectiveFrontEnd:
    def test_v2_style_offload(self, rt):
        k = make_kernel("axpy", 2000)
        directive = (
            "omp parallel target device(*) "
            "map(tofrom: y[0:n] partition([ALIGN(loop)])) "
            "map(to: x[0:n] partition([ALIGN(loop)]), a, n) "
            "distribute dist_schedule(target:[AUTO])"
        )
        r = rt.offload(directive, k)
        assert np.allclose(k.arrays["y"], k.reference()["y"])
        assert r.devices_used >= 1

    def test_v1_style_offload_with_block_partitions(self, rt):
        k = make_kernel("axpy", 2000)
        directive = (
            "omp parallel target device(0:4) "
            "map(tofrom: y[0:n] partition([BLOCK])) "
            "map(to: x[0:n] partition([BLOCK]), a, n) "
            "distribute dist_schedule(target:[ALIGN(x)])"
        )
        r = rt.offload(directive, k)
        assert r.algorithm == "ALIGN(x)"
        assert r.devices_used == 4
        assert np.allclose(k.arrays["y"], k.reference()["y"])

    def test_device_clause_respected(self, rt):
        k = make_kernel("axpy", 1000)
        r = rt.offload("omp parallel target device(2:2)", k, schedule="BLOCK")
        assert {t.name for t in r.participating} == {"k40-0", "k40-1"}

    def test_directive_without_schedule_uses_selector(self, rt):
        k = make_kernel("matmul", 64)
        r = rt.offload("omp parallel target device(2:4)", k)
        assert r.algorithm == "BLOCK"  # identical GPUs + compute-intensive

    @pytest.mark.parametrize(
        "keyword,clause",
        [("devices", "device(...)"), ("schedule", "dist_schedule(...)")],
    )
    @pytest.mark.parametrize("shape", ["plain", "fused", "stream"])
    def test_run_program_refuses_keywords_the_op_owns(
        self, rt, shape, keyword, clause
    ):
        # devices/schedule come from the op's clauses: a plain op, a fused
        # group (which used to run members outside its region's devices)
        # and a stream all refuse them the same typed way.
        k = make_kernel("axpy", 400)
        text = "omp parallel target device(0:2)"
        if shape == "stream":
            text += " stream(batches=2)"
        program = from_directives([(text, k)] * (2 if shape == "fused" else 1))
        value = [0] if keyword == "devices" else "BLOCK"
        with pytest.raises(OffloadError) as err:
            rt.run_program(program, **{keyword: value})
        assert f"{keyword}=" in str(err.value) and clause in str(err.value)


class TestRuntimeConstruction:
    def test_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        gpu4_node().to_file(path)
        rt = HompRuntime.from_file(path)
        assert len(rt.machine) == 4

