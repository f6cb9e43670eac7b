"""SchedContext: the Table III quantities every model scheduler consumes."""

import pytest

from repro.errors import SchedulingError
from repro.kernels.registry import make_kernel
from repro.machine.device import Device
from repro.machine.presets import cpu_spec, k40_spec, mic_spec
from repro.machine.spec import MachineSpec
from repro.memory.residency import RegionResidency, ResidencyLedger
from repro.sched.base import LoopScheduler, SchedContext
from repro.util.ranges import IterRange


def ctx_for(kernel, *specs, cutoff=0.0, residency=None):
    devices = [Device(i, s) for i, s in enumerate(specs)]
    return SchedContext(
        kernel=kernel, devices=devices, cutoff_ratio=cutoff, residency=residency
    )


class TestValidation:
    def test_needs_devices(self):
        with pytest.raises(SchedulingError):
            SchedContext(kernel=make_kernel("axpy", 10), devices=[])

    def test_cutoff_range(self):
        with pytest.raises(SchedulingError):
            ctx_for(make_kernel("axpy", 10), cpu_spec(), cutoff=1.0)
        with pytest.raises(SchedulingError):
            ctx_for(make_kernel("axpy", 10), cpu_spec(), cutoff=-0.1)

    def test_basic_properties(self):
        c = ctx_for(make_kernel("axpy", 123), cpu_spec(), k40_spec())
        assert c.n_iters == 123
        assert c.ndev == 2
        assert len(c.iter_space) == 123


class TestExeT:
    def test_flops_bound_uses_modeled_rate(self):
        # matmul is flops-bound; the MIC's *modeled* 850 GFLOP/s applies
        k = make_kernel("matmul", 128)
        c = ctx_for(k, mic_spec())
        expected = k.flops_per_iter() / (850.0 * 1e9)
        assert c.per_iter_compute_s(0) == pytest.approx(expected)

    def test_memory_bound_uses_true_bandwidth(self):
        # axpy is bandwidth-bound; no microbenchmark optimism applies
        k = make_kernel("axpy", 1000)
        c = ctx_for(k, mic_spec())
        expected = 24.0 / (160.0 * 1e9)
        assert c.per_iter_compute_s(0) == pytest.approx(expected)

    def test_true_rate_includes_device_mem_factor(self):
        k = make_kernel("sum", 1000)  # device_mem_factor = 4
        c = ctx_for(k, k40_spec())
        assert c.true_per_iter_compute_s(0) == pytest.approx(
            4 * 8.0 / (210.0 * 1e9)
        )
        # ...but the *model* does not know about it
        assert c.per_iter_compute_s(0) == pytest.approx(8.0 / (210.0 * 1e9))


class TestDataT:
    def test_host_moves_nothing(self):
        c = ctx_for(make_kernel("axpy", 1000), cpu_spec())
        assert c.per_iter_xfer_s(0) == 0.0

    def test_discrete_pays_aligned_bytes(self):
        c = ctx_for(make_kernel("axpy", 1000), k40_spec())
        assert c.per_iter_xfer_s(0) == pytest.approx(24.0 / (11.0 * 1e9))

    def test_total_is_sum(self):
        c = ctx_for(make_kernel("axpy", 1000), k40_spec())
        assert c.per_iter_total_s(0) == pytest.approx(
            c.per_iter_compute_s(0) + c.per_iter_xfer_s(0)
        )


class TestFixedCost:
    def test_host_fixed_is_launch_only(self):
        c = ctx_for(make_kernel("matvec", 64), cpu_spec())
        assert c.fixed_cost_s(0) == pytest.approx(cpu_spec().launch_overhead_s)

    def test_discrete_includes_latencies_and_broadcast(self):
        k = make_kernel("matvec", 64)
        c = ctx_for(k, k40_spec())
        spec = k40_spec()
        expected = (
            spec.launch_overhead_s
            + 2 * spec.link.latency_s
            + spec.link.transfer_time(64 * 8)  # the FULL-mapped x
        )
        assert c.fixed_cost_s(0) == pytest.approx(expected)

    def test_resident_arrays_drop_broadcast(self):
        # x is valid on the device per the region's ledger: no broadcast.
        k = make_kernel("matvec", 64)
        led = ResidencyLedger()
        led.register("x", 64, k.row_nbytes("x"))
        led.retain(0, "x", [IterRange(0, 64)])
        led.mark_valid(0, "x", [IterRange(0, 64)])
        c = ctx_for(k, k40_spec(), residency=RegionResidency(led, (0,)))
        spec = k40_spec()
        assert c.fixed_cost_s(0) == pytest.approx(
            spec.launch_overhead_s + 2 * spec.link.latency_s
        )


class TestSchedulerBase:
    def test_ctx_before_start_raises(self):
        class Dummy(LoopScheduler):
            def next(self, devid):
                return None

        with pytest.raises(SchedulingError):
            Dummy().ctx
