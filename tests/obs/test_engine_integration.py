"""Engine-level guarantees: tracing is a pure side channel and the engine
emits a coherent stream."""

import pickle

import pytest

from repro.engine.simulator import OffloadEngine
from repro.kernels.registry import make_kernel
from repro.machine.presets import gpu4_node
from repro.obs.span import MARK_CHUNK, MARK_FINISH, SPAN_OFFLOAD
from repro.obs.tracer import Tracer
from repro.sched.dynamic import DynamicScheduler


def sim_result(tracer=None, n=1500):
    kw = {} if tracer is None else {"tracer": tracer}
    engine = OffloadEngine(machine=gpu4_node(), **kw)
    return engine.run(make_kernel("axpy", n, seed=2), DynamicScheduler(0.1))


class TestPureSideChannel:
    def test_traced_result_equals_untraced(self):
        untraced = sim_result()
        traced = sim_result(Tracer())
        assert pickle.dumps(traced) == pickle.dumps(untraced)

    def test_traced_runs_are_deterministic(self):
        t1, t2 = Tracer(), Tracer()
        sim_result(t1)
        sim_result(t2)
        assert t1.spans == t2.spans
        assert t1.metrics.snapshot() == t2.metrics.snapshot()


class TestSimulatorStream:
    def test_stream_covers_all_iterations(self):
        tracer = Tracer()
        result = sim_result(tracer, n=2000)
        marked = sum(
            s.arg("iters") for s in tracer.spans if s.name == MARK_CHUNK
        )
        assert marked == 2000
        finishes = [s for s in tracer.spans if s.name == MARK_FINISH]
        assert len(finishes) == len(result.participating)

    def test_offload_envelope_and_meta(self):
        tracer = Tracer()
        result = sim_result(tracer)
        envelope = [s for s in tracer.spans if s.name == SPAN_OFFLOAD]
        assert len(envelope) == 1
        assert envelope[0].devid == -1
        assert envelope[0].duration == pytest.approx(result.total_time_s)
        assert envelope[0].arg("kernel") == "axpy"
        assert tracer.meta["machine"] == gpu4_node().name
