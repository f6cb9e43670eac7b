"""The discrete-event offload engine: correctness, determinism, pipeline
overlap, barriers, and coverage enforcement."""

import numpy as np
import pytest

from repro.engine.simulator import OffloadEngine
from repro.errors import OffloadError
from repro.kernels.registry import make_kernel
from repro.machine.presets import (
    cpu_mic_node,
    cpu_spec,
    full_node,
    gpu4_node,
    homogeneous_node,
)
from repro.sched.base import Decision, LoopScheduler
from repro.sched.block import BlockScheduler
from repro.sched.dynamic import DynamicScheduler
from repro.sched.profile_const import ProfileScheduler
from repro.util.ranges import IterRange


def run(machine, kernel, scheduler, **kw):
    return OffloadEngine(machine=machine, **kw).run(kernel, scheduler)


class TestNumericCorrectness:
    @pytest.mark.parametrize("name", ["axpy", "sum", "matvec", "stencil", "bm", "matmul"])
    def test_block_on_gpus(self, name):
        k = make_kernel(name, 48)
        run(gpu4_node(), k, BlockScheduler())
        ref = k.reference()
        if isinstance(ref, dict):
            for arr, expected in ref.items():
                if arr != "__reduction__":
                    assert np.allclose(k.arrays[arr], expected)

    def test_reduction_result_attached(self):
        k = make_kernel("sum", 1000, seed=4)
        result = run(gpu4_node(), k, DynamicScheduler(0.1))
        assert result.reduction == pytest.approx(k.reference())

    def test_non_reduction_has_none(self):
        k = make_kernel("axpy", 100)
        result = run(gpu4_node(), k, BlockScheduler())
        assert result.reduction is None


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        r1 = run(full_node(), make_kernel("axpy", 5000), DynamicScheduler(0.05))
        r2 = run(full_node(), make_kernel("axpy", 5000), DynamicScheduler(0.05))
        assert r1.total_time_s == r2.total_time_s
        assert [t.iters for t in r1.traces] == [t.iters for t in r2.traces]

    def test_noise_is_seed_stable(self):
        m = gpu4_node(noise=0.1)
        r1 = OffloadEngine(machine=m, seed=7).run(
            make_kernel("axpy", 5000), DynamicScheduler(0.05)
        )
        r2 = OffloadEngine(machine=m, seed=7).run(
            make_kernel("axpy", 5000), DynamicScheduler(0.05)
        )
        r3 = OffloadEngine(machine=m, seed=8).run(
            make_kernel("axpy", 5000), DynamicScheduler(0.05)
        )
        assert r1.total_time_s == r2.total_time_s
        assert r1.total_time_s != r3.total_time_s


class TestCoverage:
    class LossyScheduler(LoopScheduler):
        notation = "LOSSY"

        def start(self, ctx):
            super().start(ctx)
            self._given = False

        def next(self, devid) -> Decision:
            if not self._given:
                self._given = True
                return IterRange(0, self.ctx.n_iters - 1)  # drops one iter
            return None

    class OverlappingScheduler(LoopScheduler):
        notation = "DOUBLE"

        def start(self, ctx):
            super().start(ctx)
            self._count = 0

        def next(self, devid) -> Decision:
            self._count += 1
            if self._count <= 2:
                return IterRange(0, self.ctx.n_iters)
            return None

    def test_lost_iterations_detected(self):
        with pytest.raises(OffloadError, match="covered"):
            run(homogeneous_node(2), make_kernel("axpy", 100), self.LossyScheduler())

    def test_duplicated_iterations_detected(self):
        with pytest.raises(OffloadError, match="covered"):
            run(homogeneous_node(2), make_kernel("axpy", 100), self.OverlappingScheduler())

    class EmptyChunkScheduler(LoopScheduler):
        notation = "EMPTY"

        def start(self, ctx):
            super().start(ctx)
            self._n = 0

        def next(self, devid) -> Decision:
            self._n += 1
            if self._n == 1:
                return IterRange(5, 5)
            if self._n == 2:
                return IterRange(0, self.ctx.n_iters)
            return None

    def test_empty_chunk_rejected(self):
        with pytest.raises(OffloadError, match="empty chunk"):
            run(homogeneous_node(1), make_kernel("axpy", 10), self.EmptyChunkScheduler())


class TestTimingModel:
    def test_block_time_on_identical_gpus(self):
        """BLOCK on n identical GPUs: transfer + compute + launch, serial."""
        n = 1_000_000
        k = make_kernel("axpy", n)
        machine = gpu4_node()
        result = run(machine, k, BlockScheduler())
        spec = machine[0]
        per_dev = n // 4
        bytes_in = per_dev * 16  # x + y in
        bytes_out = per_dev * 8
        t_in = spec.link.transfer_time(bytes_in)
        t_out = spec.link.transfer_time(bytes_out)
        t_comp = per_dev * 24 / (spec.mem_bandwidth_gbs * 1e9) + spec.launch_overhead_s
        expected = (
            spec.setup_overhead_s + spec.sched_overhead_s + t_in + t_comp + t_out
        )
        assert result.total_time_s == pytest.approx(expected, rel=1e-9)

    def test_host_devices_move_no_bytes(self):
        k = make_kernel("axpy", 10_000)
        result = run(homogeneous_node(2, cpu_spec()), k, BlockScheduler())
        for t in result.traces:
            assert t.xfer_in_s == 0.0
            assert t.xfer_out_s == 0.0

    def test_pipeline_overlap_beats_single_chunk_for_data_intensive(self):
        n = 2_000_000
        block = run(gpu4_node(), make_kernel("axpy", n), BlockScheduler())
        dyn = run(gpu4_node(), make_kernel("axpy", n), DynamicScheduler(0.02))
        assert dyn.total_time_s < block.total_time_s

    def test_setup_charged_once_per_device(self):
        k = make_kernel("axpy", 10_000)
        result = run(gpu4_node(), k, DynamicScheduler(0.05))
        spec = gpu4_node()[0]
        for t in result.participating:
            assert t.setup_s == pytest.approx(spec.setup_overhead_s)

    def test_replicated_array_charged_on_first_chunk_only(self):
        k = make_kernel("matvec", 200)
        e = OffloadEngine(machine=homogeneous_node(1))
        result = e.run(k, DynamicScheduler(0.25))
        # 4 chunks; x (200*8 bytes) broadcast once: total xfer_in is
        # 4 * (A rows + y) + one x
        spec = homogeneous_node(1)[0]
        a_and_y = 200 * (200 + 1) * 8
        x = 200 * 8
        expected = 4 * spec.link.latency_s + (a_and_y + x) / (
            spec.link.bandwidth_gbs * 1e9
        )
        assert result.traces[0].xfer_in_s == pytest.approx(expected, rel=1e-9)


class TestBarriers:
    def test_profile_scheduler_runs_through_engine(self):
        k = make_kernel("axpy", 10_000)
        result = run(cpu_mic_node(), k, ProfileScheduler(0.1))
        assert sum(t.iters for t in result.traces) == 10_000
        # stage-1 barrier produces waiting time on the faster devices
        assert any(t.barrier_s > 0 for t in result.traces)

    def test_profile_stage2_favours_fast_devices(self):
        k = make_kernel("axpy", 100_000)
        result = run(cpu_mic_node(), k, ProfileScheduler(0.05))
        by_name = {t.name: t.iters for t in result.traces}
        # hosts are much faster for axpy (no PCIe): they get more work
        assert by_name["cpu-0"] > by_name["mic-0"]


class TestResultShape:
    def test_total_is_max_finish(self):
        result = run(full_node(), make_kernel("axpy", 5000), BlockScheduler())
        assert result.total_time_s == pytest.approx(
            max(t.finish_s for t in result.participating)
        )

    def test_closing_barrier_accounts_idle(self):
        result = run(cpu_mic_node(), make_kernel("axpy", 5000), BlockScheduler())
        for t in result.participating:
            assert t.barrier_s == pytest.approx(
                result.total_time_s - t.finish_s
            ) or t.barrier_s >= result.total_time_s - t.finish_s

    def test_chunk_log_collection(self):
        e = OffloadEngine(machine=gpu4_node(), record_events=True)
        e.run(make_kernel("axpy", 1000), DynamicScheduler(0.1))
        log = [(ev.devid, ev.chunk) for ev in e.timeline.events]
        assert sum(len(c) for _, c in log) == 1000
        assert len(log) == 10

    def test_imbalance_zero_on_identical_devices_block(self):
        result = run(gpu4_node(), make_kernel("axpy", 4000), BlockScheduler())
        assert result.imbalance_pct() == pytest.approx(0.0, abs=1e-9)

    def test_breakdown_sums_to_100(self):
        result = run(full_node(), make_kernel("axpy", 5000), DynamicScheduler(0.1))
        for t in result.participating:
            assert sum(t.breakdown_pct().values()) == pytest.approx(100.0)

    def test_execute_numerically_off_keeps_timing(self):
        k1 = make_kernel("axpy", 5000)
        r1 = OffloadEngine(machine=gpu4_node(), execute_numerically=False).run(
            k1, BlockScheduler()
        )
        k2 = make_kernel("axpy", 5000)
        r2 = OffloadEngine(machine=gpu4_node(), execute_numerically=True).run(
            k2, BlockScheduler()
        )
        assert r1.total_time_s == r2.total_time_s
        # numeric arrays untouched in the first run
        assert np.array_equal(k1.arrays["y"], k1._initial["y"])
