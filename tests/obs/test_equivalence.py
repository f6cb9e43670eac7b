"""The contract that makes the span stream trustworthy: every
``DeviceTrace`` bucket the engine accumulates is rebuildable from spans to
1e-9, and Fig. 6 (``OffloadResult.imbalance_pct``/``breakdown_pct``)
computed over the rebuilt traces equals Fig. 6 over the engine's own."""

import pytest

from repro.apps import SlidingStencilKernel
from repro.engine.simulator import OffloadEngine
from repro.engine.trace import DeviceTrace, OffloadResult
from repro.faults.plan import DeviceDropout, FaultPlan, Slowdown, TransferError
from repro.kernels.registry import make_kernel
from repro.machine.presets import full_node, gpu4_node
from repro.obs.span import MARK_CHUNK, MARK_FINISH, SPAN_OFFLOAD
from repro.obs.tracer import Tracer
from repro.runtime import HompRuntime
from repro.sched.registry import make_scheduler

TOL = 1e-9

POLICIES = (
    "BLOCK",
    "SCHED_DYNAMIC",
    "SCHED_GUIDED",
    "MODEL_2_AUTO",
    "SCHED_PROFILE_AUTO",
    "MODEL_PROFILE_AUTO",
)

#: span name -> the DeviceTrace bucket its durations sum into.
BUCKETS = {
    "sched": "sched_s",
    "setup": "setup_s",
    "xfer_in": "xfer_in_s",
    "xfer_out": "xfer_out_s",
    "compute": "compute_s",
    "barrier": "barrier_s",
    "retry": "retry_s",
}


def traced_run(machine, kernel, policy, **engine_kw):
    tracer = Tracer()
    engine = OffloadEngine(machine=machine, tracer=tracer, **engine_kw)
    result = engine.run(kernel, make_scheduler(policy))
    return tracer, result


def rebuilt_from_spans(spans) -> OffloadResult:
    """An ``OffloadResult`` whose traces come from spans alone: bucket
    sums, ``chunk`` marks (chunks, iterations) and ``finish`` marks."""
    traces: dict[int, DeviceTrace] = {}
    total = 0.0
    for s in spans:
        if s.name == SPAN_OFFLOAD:
            total = s.duration
            continue
        if s.devid < 0:
            continue
        t = traces.setdefault(s.devid, DeviceTrace(devid=s.devid, name=s.device))
        if s.name in BUCKETS:
            attr = BUCKETS[s.name]
            setattr(t, attr, getattr(t, attr) + s.duration)
        elif s.name == MARK_CHUNK:
            t.chunks += 1
            t.iters += s.arg("iters")
        elif s.name == MARK_FINISH:
            t.finish_s = s.t0
    return OffloadResult(
        kernel_name="", algorithm="", total_time_s=total,
        traces=[traces[d] for d in sorted(traces)],
    )


def assert_equivalent(spans, result):
    rebuilt = rebuilt_from_spans(spans)
    assert rebuilt.total_time_s == pytest.approx(result.total_time_s, abs=TOL)
    assert [t.devid for t in rebuilt.participating] == sorted(
        t.devid for t in result.participating
    )
    by_id = {t.devid: t for t in rebuilt.participating}
    for t in result.participating:
        r = by_id[t.devid]
        assert (r.name, r.chunks, r.iters) == (t.name, t.chunks, t.iters)
        assert r.finish_s == pytest.approx(t.finish_s, abs=TOL)
        for attr in BUCKETS.values():
            assert getattr(r, attr) == pytest.approx(getattr(t, attr), abs=TOL)
    assert rebuilt.imbalance_pct() == pytest.approx(
        result.imbalance_pct(), abs=TOL
    )
    legacy = result.breakdown_pct()
    derived = rebuilt.breakdown_pct()
    for key in ("sched", "data", "compute", "barrier"):
        assert derived[key] == pytest.approx(legacy[key], abs=TOL)


@pytest.mark.parametrize("policy", POLICIES)
def test_span_metrics_match_legacy_on_gpus(policy):
    tracer, result = traced_run(
        gpu4_node(), make_kernel("axpy", 3000, seed=5), policy
    )
    assert_equivalent(tracer.spans, result)


@pytest.mark.parametrize("policy", ("BLOCK", "SCHED_DYNAMIC", "MODEL_2_AUTO"))
def test_span_metrics_match_legacy_on_heterogeneous_node(policy):
    tracer, result = traced_run(
        full_node(), make_kernel("matvec", 640, seed=3), policy
    )
    assert_equivalent(tracer.spans, result)


def test_span_metrics_match_legacy_under_faults():
    plan = FaultPlan(
        faults=(
            Slowdown(devid=1, factor=3.0, t_start=0.0),
            TransferError(devid=2, p_fail=0.3, seed=7),
            DeviceDropout(devid=3, t=0.002),
        )
    )
    tracer, result = traced_run(
        gpu4_node(), make_kernel("axpy", 4000, seed=9), "SCHED_DYNAMIC",
        fault_plan=plan,
    )
    assert_equivalent(tracer.spans, result)
    # The fault stream is mirrored as instants.
    fault_spans = [s for s in tracer.spans if s.name.startswith("fault:")]
    assert fault_spans
    assert len(fault_spans) == result.meta["faults"]["events"]


def test_metrics_registry_counts_match_result():
    tracer, result = traced_run(
        gpu4_node(), make_kernel("axpy", 2000, seed=1), "SCHED_DYNAMIC"
    )
    met = tracer.metrics
    for t in result.participating:
        assert met.counter_value("chunks_issued", device=t.name) == t.chunks
        assert met.counter_value("iterations", device=t.name) == t.iters
    total_chunks = sum(t.chunks for t in result.participating)
    assert sum(
        c.value for c in met.counters() if c.name == "sched_decisions"
    ) == total_chunks


def test_bound_tracer_spans_rebuild_each_stream_batch():
    """A stream batch emits through ``Tracer.bind(batch=k)`` in cumulative
    stream time; its labelled spans alone rebuild that batch's traces."""
    tracer = Tracer()
    sr = HompRuntime(full_node()).stream(
        SlidingStencilKernel(64, seed=1), batches=3, window=8,
        schedule="SCHED_DYNAMIC", tracer=tracer,
    )
    assert len(sr.results) == 3
    for k, result in enumerate(sr.results):
        spans = [s for s in tracer.spans if s.arg("batch") == k]
        assert spans
        assert_equivalent(spans, result)
