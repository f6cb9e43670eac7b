"""Stream runner semantics: metadata, elision, faults, and the IR path."""

import pickle

import numpy as np
import pytest

from repro.apps import OnlineSumKernel, SlidingStencilKernel
from repro.engine.core import make_backend
from repro.errors import SchedulingError
from repro.faults.plan import DeviceDropout, FaultPlan
from repro.ir.lower import from_directive
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.runtime import HompRuntime, StreamResult
from repro.runtime.stream import run_stream


def stream(kernel, **kw):
    kw.setdefault("batches", 4)
    kw.setdefault("window", 16)
    kw.setdefault("schedule", "BLOCK")
    return HompRuntime(machine=gpu4_node()).stream(kernel, **kw)


class TestValidation:
    def test_batches_must_be_positive(self):
        with pytest.raises(SchedulingError, match="batches"):
            stream(OnlineSumKernel(100), batches=0)

    def test_window_must_be_non_negative(self):
        with pytest.raises(SchedulingError, match="window"):
            stream(OnlineSumKernel(100), window=-1)

    @pytest.mark.parametrize("bad", [
        {"batches": True}, {"batches": 2.5}, {"batches": 2.0}, {"batches": "2"},
        {"window": True}, {"window": 1.5}, {"window": False},
    ])
    def test_batches_and_window_must_be_integers(self, bad):
        kernel = OnlineSumKernel(100)
        with pytest.raises(SchedulingError, match="must be an integer"):
            stream(kernel, **bad)
        assert kernel.stats.chunks == 0


class TestResultShape:
    def test_stream_result_metadata(self):
        sr = stream(SlidingStencilKernel(48, seed=1), batches=3)
        assert isinstance(sr, StreamResult)
        assert sr.kernel_name == "stream-stencil"
        assert sr.batches == 3 and len(sr.results) == 3
        assert sr.meta["pipelined"] is True
        assert sr.meta["device_ids"] == [0, 1, 2, 3]

    def test_batches_stamped_in_result_meta(self):
        sr = stream(OnlineSumKernel(256, seed=1), batches=3)
        for k, result in enumerate(sr.results):
            assert result.meta["stream"] == {
                "batch": k, "batches": 3, "window": 16,
            }

    def test_throughput_consistent_with_total(self):
        sr = stream(OnlineSumKernel(256, seed=1), batches=5)
        assert sr.throughput_batches_per_s == pytest.approx(
            5 / sr.total_time_s
        )

    def test_reductions_one_per_batch(self):
        sr = stream(OnlineSumKernel(256, seed=1), batches=4)
        assert len(sr.reductions) == 4
        assert all(r is not None for r in sr.reductions)


class TestResidency:
    def test_steady_state_elides_bytes(self):
        sr = stream(SlidingStencilKernel(64, seed=1), batches=6, window=8)
        assert sr.bytes_elided > 0
        assert sr.bytes_moved > 0
        # Steady-state batches are cheaper than the cold first batch.
        times = sr.batch_times_s
        assert min(times[1:]) < times[0]

    def test_fallback_window_invalidation_without_hook(self):
        # A kernel with no stream_advance still re-stages the leading
        # window rows of its inbound maps each batch.
        sr = stream(make_kernel("axpy", 4096, seed=2), batches=4, window=64)
        assert sr.bytes_elided > 0

    def test_zero_window_stream_moves_minimum(self):
        # window=0 and no advance: after batch 0 nothing is re-staged in,
        # so a wider window strictly increases bytes moved.
        narrow = stream(make_kernel("axpy", 4096, seed=2),
                        batches=4, window=0)
        wide = stream(make_kernel("axpy", 4096, seed=2),
                      batches=4, window=512)
        assert narrow.bytes_moved < wide.bytes_moved


class TestNumerics:
    def test_final_state_matches_replayed_advances(self):
        # Replay the same deterministic advances on a host-only copy:
        # the streamed sum of the final batch must match exactly.
        kernel = OnlineSumKernel(500, seed=3)
        shadow = OnlineSumKernel(500, seed=3)
        sr = stream(kernel, batches=5, window=32)
        for batch in range(1, 5):
            shadow.stream_advance(batch, 32)
        assert sr.reductions[-1] == float(shadow.arrays["x"].sum())

    def test_outputs_identical_across_backends(self):
        # A stream on a leased engine writes the same outputs as one on
        # the engine the stream builds for itself.
        def run(engine):
            k = SlidingStencilKernel(48, seed=5)
            HompRuntime(machine=full_node()).stream(
                k, batches=3, window=8, schedule="BLOCK", engine=engine,
            )
            return k.arrays["u_out"].copy()

        machine = full_node()
        leased = make_backend("virtual", machine.subset(range(len(machine))))
        assert np.array_equal(run(None), run(leased))

    def test_multi_batch_stream_on_batch_pipelines_and_equals_virtual(self):
        # `batch` names the virtual engine, carry_in included: a stream on
        # a leased `batch` engine is pipelined across batches and equals
        # one on a leased `virtual` engine byte for byte.
        def run(spec):
            machine = full_node()
            engine = make_backend(spec, machine.subset(range(len(machine))))
            return HompRuntime(machine=machine).stream(
                SlidingStencilKernel(64, seed=5), batches=5, window=8,
                schedule="STREAM_REBALANCE", engine=engine,
            )

        sr_v, sr_b = run("virtual"), run("batch")
        assert sr_b.meta["pipelined"] is True
        assert sr_b.batch_times_s == sr_v.batch_times_s
        assert pickle.dumps(sr_b.results) == pickle.dumps(sr_v.results)


class TestFaults:
    def test_mid_stream_dropout_persists_for_later_batches(self):
        probe = stream(OnlineSumKernel(2000, seed=1), batches=6)
        t_drop = probe.total_time_s * 0.3
        plan = FaultPlan.of(DeviceDropout(devid=0, t=t_drop))
        sr = stream(OnlineSumKernel(2000, seed=1), batches=6,
                    fault_plan=plan)
        dev0 = [
            {t.devid: t for t in r.traces}[0] for r in sr.results
        ]
        assert any(t.lost for t in dev0)
        # Once lost, device 0 never serves a later batch.
        seen_lost = False
        for t in dev0:
            if seen_lost:
                assert t.iters == 0
            seen_lost = seen_lost or t.lost
        assert sr.reductions == probe.reductions  # checksums unharmed


class TestIRPath:
    DIRECTIVE = (
        "#pragma omp parallel for target device(*) "
        "map(tofrom: y[0:n] partition([BLOCK])) "
        "map(to: x[0:n] partition([BLOCK]), a, n) "
        "stream(batches=3, window=32)"
    )

    def test_run_program_returns_stream_result(self):
        prog = from_directive(
            self.DIRECTIVE, make_kernel("axpy", 1024), schedule="BLOCK"
        )
        (result,) = HompRuntime(gpu4_node()).run_program(prog)
        assert isinstance(result, StreamResult)
        assert result.batches == 3
        assert result.window == 32

    def test_run_stream_entry_point_matches_runtime_method(self):
        prog = from_directive(
            self.DIRECTIVE, make_kernel("axpy", 1024), schedule="BLOCK"
        )
        from repro.ir.passes import run_passes

        (op,) = run_passes(prog).ops
        rt = HompRuntime(gpu4_node())
        sr = run_stream(rt, op, {d.name: d for d in prog.decls})
        direct = stream(make_kernel("axpy", 1024), batches=3, window=32)
        assert sr.total_time_s == direct.total_time_s
