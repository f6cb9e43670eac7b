"""Fault injection through the engine: slowdown, retries, dropout,
quarantine, total loss, and the determinism / fault-free-identity
guarantees."""

import numpy as np
import pytest

from repro.engine.simulator import OffloadEngine
from repro.errors import FaultError
from repro.faults.events import FaultKind
from repro.faults.plan import (
    DeviceDropout,
    FaultPlan,
    Slowdown,
    TransferError,
)
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.sched.block import BlockScheduler
from repro.sched.dynamic import DynamicScheduler
from repro.sched.profile_const import ProfileScheduler

N = 20_000


def run(scheduler, plan=None, *, n=N, resilience=None, machine=None, **kw):
    kernel = make_kernel("axpy", n)
    engine_kw = {}
    if plan is not None:
        engine_kw["fault_plan"] = plan
    if resilience is not None:
        engine_kw["resilience"] = resilience
    engine = OffloadEngine(
        machine=machine if machine is not None else gpu4_node(),
        **engine_kw, **kw,
    )
    result = engine.run(kernel, scheduler)
    return kernel, result, engine


def assert_correct(kernel):
    ref = kernel.reference()
    for name, expected in ref.items():
        if name != "__reduction__":
            np.testing.assert_array_equal(kernel.arrays[name], expected)


class TestSlowdown:
    def test_straggler_stretches_makespan(self):
        _, base, _ = run(BlockScheduler())
        kernel, faulted, _ = run(
            BlockScheduler(), FaultPlan.of(Slowdown(devid=1, factor=4.0))
        )
        assert faulted.total_time_s > base.total_time_s
        assert_correct(kernel)

    def test_windowed_slowdown_outside_window_is_free(self):
        _, base, _ = run(BlockScheduler())
        # window opens long after the offload finished
        _, faulted, _ = run(
            BlockScheduler(),
            FaultPlan.of(Slowdown(devid=1, factor=4.0, t_start=1e6)),
        )
        assert faulted.total_time_s == base.total_time_s

    def test_victim_trace_stretches(self):
        _, base, _ = run(BlockScheduler())
        _, faulted, _ = run(
            BlockScheduler(), FaultPlan.of(Slowdown(devid=1, factor=4.0))
        )
        assert faulted.traces[1].busy_s > base.traces[1].busy_s
        assert faulted.traces[0].busy_s == base.traces[0].busy_s


class TestTransferRetries:
    PLAN = FaultPlan.of(TransferError(devid=1, p_fail=0.4, seed=5))

    def test_retries_accounted_and_output_correct(self):
        kernel, result, engine = run(DynamicScheduler(0.1), self.PLAN)
        assert_correct(kernel)
        meta = result.meta["faults"]
        assert meta["retries"] > 0
        assert meta["events"] >= meta["retries"]
        victim = result.traces[1]
        assert victim.retries == sum(
            1 for f in engine.timeline.faults
            if f.kind is FaultKind.RETRY and f.devid == 1
        )
        assert victim.retry_s > 0.0

    def test_retry_time_charged_to_busy(self):
        _, base, _ = run(DynamicScheduler(0.1))
        _, faulted, _ = run(DynamicScheduler(0.1), self.PLAN)
        assert faulted.total_time_s > base.total_time_s

    def test_unaffected_devices_clean(self):
        _, result, _ = run(DynamicScheduler(0.1), self.PLAN)
        for t in result.traces:
            if t.devid != 1:
                assert t.retries == 0 and t.retry_s == 0.0


class TestDropout:
    def test_survivors_finish_the_work(self):
        _, base, _ = run(BlockScheduler())
        drop = FaultPlan.of(DeviceDropout(devid=1, t=base.total_time_s / 2))
        kernel, result, _ = run(BlockScheduler(), drop)
        assert_correct(kernel)
        assert result.traces[1].lost
        assert result.meta["faults"]["lost"] == ["k40-1"]
        assert result.total_time_s > base.total_time_s

    def test_dropout_before_start_excludes_device(self):
        kernel, result, _ = run(
            DynamicScheduler(0.1), FaultPlan.of(DeviceDropout(devid=2, t=0.0))
        )
        assert_correct(kernel)
        assert result.traces[2].lost
        assert result.traces[2].iters == 0

    def test_profile_scheduler_survives_dropout(self):
        _, base, _ = run(ProfileScheduler())
        drop = FaultPlan.of(DeviceDropout(devid=1, t=base.total_time_s / 2))
        kernel, result, _ = run(ProfileScheduler(), drop)
        assert_correct(kernel)
        assert result.traces[1].lost

    def test_all_devices_lost_raises(self):
        plan = FaultPlan.of(*[DeviceDropout(devid=d, t=0.0) for d in range(4)])
        with pytest.raises(FaultError):
            run(BlockScheduler(), plan)


class TestQuarantine:
    DEAD_LINK = FaultPlan.of(TransferError(devid=1, p_fail=0.97, seed=5))

    # With three healthy peers draining the loop, the victim only sees one
    # chunk before the work runs out — quarantine on the first exhausted
    # chunk exercises the mechanism deterministically.
    STRICT = ResiliencePolicy(retry=RetryPolicy(max_retries=2), quarantine_after=1)

    def test_dead_link_quarantines_device(self):
        kernel, result, _ = run(
            DynamicScheduler(0.05), self.DEAD_LINK, resilience=self.STRICT,
        )
        assert_correct(kernel)
        assert result.meta["faults"]["quarantined"] == ["k40-1"]
        assert result.traces[1].lost

    def test_quarantined_device_gets_no_more_work(self):
        _, result, engine = run(
            DynamicScheduler(0.05), self.DEAD_LINK, resilience=self.STRICT,
        )
        lost_at = result.traces[1].lost_at
        assert lost_at is not None
        quarantine_events = [
            f for f in engine.timeline.faults if f.kind is FaultKind.QUARANTINE
        ]
        assert len(quarantine_events) == 1
        assert quarantine_events[0].t == lost_at


class TestGuarantees:
    def test_faulted_runs_are_deterministic(self):
        plan = FaultPlan.of(
            TransferError(devid=1, p_fail=0.4, seed=5),
            Slowdown(devid=2, factor=2.0),
        )
        k1, r1, e1 = run(DynamicScheduler(0.1), plan)
        k2, r2, e2 = run(DynamicScheduler(0.1), plan)
        assert r1.total_time_s == r2.total_time_s
        assert [t.iters for t in r1.traces] == [t.iters for t in r2.traces]
        assert e1.timeline.faults == e2.timeline.faults
        np.testing.assert_array_equal(k1.arrays["y"], k2.arrays["y"])

    def test_empty_plan_is_bitwise_fault_free(self):
        _, base, _ = run(DynamicScheduler(0.1))
        _, empty, _ = run(DynamicScheduler(0.1), FaultPlan())
        assert empty.total_time_s == base.total_time_s
        assert "faults" not in empty.meta

    def test_faulted_output_matches_fault_free_bitwise(self):
        k_base, base, _ = run(DynamicScheduler(0.1))
        drop = FaultPlan.of(DeviceDropout(devid=1, t=base.total_time_s / 2))
        k_fault, _, _ = run(DynamicScheduler(0.1), drop)
        np.testing.assert_array_equal(k_base.arrays["y"], k_fault.arrays["y"])
