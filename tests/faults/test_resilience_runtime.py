"""Fault plan and resilience policy through the runtime entry points."""

import numpy as np
import pytest

from repro.errors import FaultPlanError
from repro.faults.plan import FAULTS_ENV, DeviceDropout, FaultPlan, Slowdown
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.runtime.runtime import HompRuntime


PLAN = FaultPlan.of(Slowdown(devid=1, factor=3.0), name="straggler")


def test_parallel_for_accepts_fault_plan():
    rt = HompRuntime(gpu4_node())
    base = rt.parallel_for(make_kernel("axpy", 10_000), schedule="BLOCK")
    faulted = rt.parallel_for(
        make_kernel("axpy", 10_000), schedule="BLOCK", fault_plan=PLAN
    )
    assert faulted.total_time_s > base.total_time_s
    assert faulted.meta["faults"]["plan"] == "straggler(1 faults)"


def test_offload_info_carries_plan_label():
    rt = HompRuntime(gpu4_node())
    result = rt.parallel_for(
        make_kernel("axpy", 10_000), schedule="BLOCK", fault_plan=PLAN
    )
    info = result.meta["offload_info"]
    assert info.fault_plan == "straggler(1 faults)"

    clean = rt.parallel_for(make_kernel("axpy", 10_000), schedule="BLOCK")
    assert clean.meta["offload_info"].fault_plan is None


def test_plan_devids_index_selected_devices():
    # The plan's devid 0 must hit the first *selected* device (k40-2,
    # machine id 2), not machine device 0.
    rt = HompRuntime(gpu4_node())
    plan = FaultPlan.of(Slowdown(devid=0, factor=4.0))
    base = rt.parallel_for(
        make_kernel("axpy", 10_000), schedule="BLOCK", devices=[2, 3]
    )
    faulted = rt.parallel_for(
        make_kernel("axpy", 10_000), schedule="BLOCK", devices=[2, 3],
        fault_plan=plan,
    )
    assert faulted.total_time_s > base.total_time_s
    assert faulted.meta["device_ids"] == [2, 3]


@pytest.mark.parametrize("devid", [2, 3, 99])
@pytest.mark.parametrize("faults_env", [None, "off"])
def test_plan_naming_an_unselected_device_is_refused(monkeypatch, devid, faults_env):
    # Two devices are selected, so plan ids 0 and 1 are the only ones that
    # can inject anything; a stray id is refused even with injection off.
    if faults_env is not None:
        monkeypatch.setenv(FAULTS_ENV, faults_env)
    kernel = make_kernel("axpy", 10_000)
    plan = FaultPlan(faults=(DeviceDropout(devid=devid, t=0.0),))
    with pytest.raises(FaultPlanError, match=rf"\[{devid}\].*2 device"):
        HompRuntime(gpu4_node()).parallel_for(
            kernel, schedule="BLOCK", devices=[0, 1], fault_plan=plan
        )
    assert kernel.stats.chunks == 0


def test_custom_resilience_policy_threads_through():
    rt = HompRuntime(gpu4_node())
    base = rt.parallel_for(make_kernel("axpy", 10_000), schedule="SCHED_DYNAMIC")
    plan = FaultPlan.of(DeviceDropout(devid=1, t=base.total_time_s / 2))
    result = rt.parallel_for(
        make_kernel("axpy", 10_000), schedule="SCHED_DYNAMIC",
        fault_plan=plan,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=1), quarantine_after=1
        ),
    )
    assert result.meta["faults"]["lost"] == ["k40-1"]


def test_directive_offload_accepts_fault_plan():
    rt = HompRuntime(gpu4_node())
    k = make_kernel("axpy", 10_000)
    result = rt.offload(
        "omp parallel target device(*) map(tofrom: y[0:n])",
        k,
        schedule="SCHED_DYNAMIC",
        fault_plan=PLAN,
    )
    assert result.meta["faults"]["plan"] == "straggler(1 faults)"
    ref = k.reference()
    for name, expected in ref.items():
        if name != "__reduction__":
            np.testing.assert_array_equal(k.arrays[name], expected)
