"""Unit tests for the batch backend (`repro.engine.batch`).

`BatchEngine` is the virtual engine plus `run_many`; bit-identity with
the virtual-time simulator over whole grids lives in
``test_batch_differential.py``.  This file pins the batch contract
itself — positional alignment, the per-cell execute-numerically
override, the run gate held across the whole batch, and last-run
introspection — and keeps the single-cell comparisons against
``virtual`` for every configuration that used to take a separate path.
"""

import pickle

import pytest

from repro.engine.batch import BatchEngine, BatchRequest
from repro.engine.core import make_backend
from repro.engine.simulator import OffloadEngine
from repro.errors import EngineBusyError
from repro.faults.plan import FaultPlan, Slowdown, TransferError
from repro.kernels.registry import make_kernel
from repro.machine.presets import (
    cpu_spec,
    full_node,
    gpu4_node,
    homogeneous_node,
)
from repro.obs.tracer import Tracer
from repro.sched.registry import make_scheduler

N = 20_000


def virtual_result(policy, kname="axpy", *, machine=None, n=N, **opts):
    machine = gpu4_node() if machine is None else machine
    eng = OffloadEngine(machine=machine, seed=0, **opts)
    return eng.run(make_kernel(kname, n, seed=1), make_scheduler(policy))


def batch_result(policy, kname="axpy", *, machine=None, n=N, **opts):
    machine = gpu4_node() if machine is None else machine
    eng = BatchEngine(machine=machine, seed=0, **opts)
    return eng.run(make_kernel(kname, n, seed=1), make_scheduler(policy))


class TestSingleCell:
    def test_static_policy_bit_identical(self):
        r_v = virtual_result("BLOCK")
        r_b = batch_result("BLOCK")
        assert pickle.dumps(r_v) == pickle.dumps(r_b)

    def test_dynamic_policy_falls_back_transparently(self):
        # SCHED_DYNAMIC is timing-driven; same engine, same bytes.
        r_v = virtual_result("SCHED_DYNAMIC")
        r_b = batch_result("SCHED_DYNAMIC")
        assert pickle.dumps(r_v) == pickle.dumps(r_b)

    def test_make_backend_builds_batch_engine(self):
        eng = make_backend("batch", gpu4_node(), seed=0)
        assert isinstance(eng, BatchEngine)
        r = eng.run(make_kernel("axpy", N, seed=1), make_scheduler("BLOCK"))
        assert pickle.dumps(r) == pickle.dumps(virtual_result("BLOCK"))

    def test_chunk_log_matches_virtual(self):
        m = gpu4_node()
        kern = make_kernel("axpy", N, seed=1)
        e_v = OffloadEngine(machine=m, seed=0, record_events=True)
        e_b = BatchEngine(machine=m, seed=0, record_events=True)
        e_v.run(kern, make_scheduler("MODEL_2_AUTO"))
        e_b.run(kern, make_scheduler("MODEL_2_AUTO"))
        assert e_b.timeline.events == e_v.timeline.events

    def test_record_events_matches_virtual(self):
        kw = dict(machine=gpu4_node(), seed=0, record_events=True)
        kern = make_kernel("axpy", N, seed=1)
        e_v = OffloadEngine(**kw)
        e_b = BatchEngine(**kw)
        e_v.run(kern, make_scheduler("MODEL_PROFILE_AUTO"))
        e_b.run(kern, make_scheduler("MODEL_PROFILE_AUTO"))
        assert e_b.timeline.events == e_v.timeline.events


class TestRunMany:
    def test_results_positionally_aligned(self):
        m = gpu4_node()
        reqs = [
            BatchRequest(make_kernel("axpy", N, seed=1), make_scheduler(p))
            for p in ("BLOCK", "MODEL_1_AUTO", "SCHED_DYNAMIC", "BLOCK")
        ]
        results = BatchEngine(machine=m, seed=0).run_many(reqs)
        for req, r in zip(reqs, results):
            single = OffloadEngine(machine=m, seed=0).run(
                make_kernel("axpy", N, seed=1),
                make_scheduler(req.scheduler.notation),
            )
            assert r.algorithm == single.algorithm
            assert pickle.dumps(r) == pickle.dumps(single)

    @pytest.mark.parametrize("config", ["plain", "faulted", "traced"])
    def test_mixed_batch_each_cell_equals_virtual(self, config):
        # Static and timing-driven cells, different kernels and cutoffs,
        # numerics on/off per cell — under a live fault plan or a tracer
        # too — each land in their request's slot with exactly the bytes
        # a lone virtual run of that request produces.
        m = homogeneous_node(4, cpu_spec()) if config == "faulted" else full_node()
        cells = [
            ("axpy", N, "MODEL_2_AUTO", 0.1, None),
            ("sum", N, "SCHED_DYNAMIC", 0.0, True),
            ("stencil", 1_000, "BLOCK", 0.0, False),
            ("axpy", N, "SCHED_GUIDED", 0.0, False),
            ("sum", N, "SCHED_PROFILE_AUTO", 0.0, None),
        ]

        def options():
            if config == "faulted":
                return {"fault_plan": FaultPlan.of(Slowdown(0, 3.0))}
            if config == "traced":
                return {"tracer": Tracer()}
            return {}

        batch_opts = options()
        results = BatchEngine(machine=m, seed=0, **batch_opts).run_many([
            BatchRequest(make_kernel(k, n, seed=1), make_scheduler(p),
                         cutoff_ratio=c, execute_numerically=ex)
            for k, n, p, c, ex in cells
        ])
        assert len(results) == len(cells)
        for (k, n, p, c, ex), got in zip(cells, results):
            want = OffloadEngine(
                machine=m, seed=0, **options(),
                execute_numerically=True if ex is None else ex,
            ).run(make_kernel(k, n, seed=1), make_scheduler(p), cutoff_ratio=c)
            assert got.algorithm == want.algorithm
            assert pickle.dumps(got) == pickle.dumps(want)
        if config == "faulted":
            assert all("faults" in r.meta for r in results)
        if config == "traced":
            assert len(batch_opts["tracer"].spans) > 0

    def test_execute_numerically_override_per_cell(self):
        m = gpu4_node()
        k1 = make_kernel("axpy", N, seed=1)
        k2 = make_kernel("sum", N, seed=1)
        reqs = [
            BatchRequest(k1, make_scheduler("BLOCK"),
                         execute_numerically=False),
            BatchRequest(k2, make_scheduler("BLOCK")),
        ]
        r1, r2 = BatchEngine(machine=m, seed=0).run_many(reqs)
        # Skipped numerics leave the arrays untouched...
        assert (k1.arrays["y"] == k1._initial["y"]).all()
        # ...but produce the exact result bytes of an executed cell,
        # because nothing numeric enters a non-reduction OffloadResult.
        assert pickle.dumps(r1) == pickle.dumps(virtual_result("BLOCK"))
        # The inheriting cell executed: the reduction value is present.
        assert r2.reduction is not None


class TestFallbackTriggers:
    """Engine configurations that perturb per-chunk timing (faults,
    tracers, noise): nothing falls back any more — `batch` runs them on
    the one event loop — and each still equals `virtual` byte for byte."""

    def test_active_fault_plan_falls_back(self):
        plan = FaultPlan.of(Slowdown(0, 3.0))
        m = homogeneous_node(4, cpu_spec())
        kw = dict(machine=m, seed=0, fault_plan=plan)
        r_v = OffloadEngine(**kw).run(
            make_kernel("sum", N, seed=1), make_scheduler("BLOCK")
        )
        r_b = BatchEngine(**kw).run(
            make_kernel("sum", N, seed=1), make_scheduler("BLOCK")
        )
        assert pickle.dumps(r_v) == pickle.dumps(r_b)
        # The plan was live on both paths (faults meta only exists then).
        assert "faults" in r_v.meta and "faults" in r_b.meta

    def test_empty_fault_plan_is_fault_free(self):
        # An empty plan changes nothing: same bytes as no plan at all.
        r_b = batch_result("BLOCK", fault_plan=FaultPlan())
        assert "faults" not in r_b.meta
        assert pickle.dumps(r_b) == pickle.dumps(virtual_result("BLOCK"))

    def test_tracer_falls_back_and_emits_spans(self):
        tracer = Tracer()
        r_b = BatchEngine(machine=gpu4_node(), seed=0, tracer=tracer).run(
            make_kernel("axpy", N, seed=1), make_scheduler("BLOCK")
        )
        assert pickle.dumps(r_b) == pickle.dumps(virtual_result("BLOCK"))
        assert len(tracer.spans) > 0

    def test_noisy_devices_fall_back(self):
        m = gpu4_node(noise=0.05)
        kw = dict(machine=m, seed=0)
        kern = make_kernel("axpy", N, seed=1)
        r_v = OffloadEngine(**kw).run(kern, make_scheduler("BLOCK"))
        r_b = BatchEngine(**kw).run(kern, make_scheduler("BLOCK"))
        assert pickle.dumps(r_v) == pickle.dumps(r_b)

    def test_fallback_engine_exposes_chunk_log(self):
        eng = BatchEngine(machine=gpu4_node(), seed=0, record_events=True)
        eng.run(make_kernel("axpy", N, seed=1),
                make_scheduler("SCHED_DYNAMIC"))
        assert len(eng.timeline.events) > 0


class TestRunGate:
    """`run_many` holds the engine's own run gate for the whole batch."""

    @pytest.mark.parametrize("policy", ["BLOCK", "SCHED_DYNAMIC"])
    def test_reentry_mid_batch_raises_engine_busy(self, policy):
        eng = BatchEngine(machine=gpu4_node(), seed=0)
        probed = []

        def probing(sched):
            inner = sched.next

            def next_(devid):
                # From inside a cell: every way in must be refused.
                assert eng.busy
                with pytest.raises(EngineBusyError):
                    eng.run(make_kernel("sum", 1_000, seed=0),
                            make_scheduler("BLOCK"))
                with pytest.raises(EngineBusyError):
                    eng.run_many([BatchRequest(
                        make_kernel("sum", 1_000, seed=0),
                        make_scheduler("BLOCK"),
                    )])
                with pytest.raises(EngineBusyError):
                    with eng.configured(seed=1):
                        pass  # pragma: no cover
                probed.append(devid)
                sched.next = inner
                return inner(devid)

            sched.next = next_
            return sched

        results = eng.run_many([
            BatchRequest(make_kernel("axpy", N, seed=1),
                         probing(make_scheduler(policy)))
            for _ in range(2)
        ])
        assert len(probed) == 2  # once per cell, second cell included
        assert not eng.busy
        for r in results:
            assert pickle.dumps(r) == pickle.dumps(virtual_result(policy))
        # Released on the way out: the engine is reusable.
        eng.run(make_kernel("axpy", N, seed=1), make_scheduler(policy))

    def test_gate_released_when_a_cell_raises(self):
        eng = BatchEngine(machine=gpu4_node(), seed=0)
        bad = make_scheduler("BLOCK")
        bad.next = lambda devid: 1 / 0
        with pytest.raises(ZeroDivisionError):
            eng.run_many([
                BatchRequest(make_kernel("axpy", N, seed=1), bad)
            ])
        assert not eng.busy


class TestLastRunIntrospection:
    """After a batch, the timeline describes the last request."""

    @pytest.mark.parametrize(
        "order",
        [("BLOCK", "SCHED_DYNAMIC"), ("SCHED_DYNAMIC", "BLOCK")],
        ids=["dynamic-last", "static-last"],
    )
    def test_mixed_batch_exposes_last_request(self, order):
        plan = FaultPlan.of(TransferError(devid=0, p_fail=0.9, seed=3))
        kw = dict(machine=gpu4_node(), seed=0, record_events=True,
                  fault_plan=plan)
        e_b = BatchEngine(**kw)
        e_b.run_many([
            BatchRequest(make_kernel("axpy", N, seed=1), make_scheduler(p))
            for p in order
        ])
        e_v = OffloadEngine(**kw)
        e_v.run(make_kernel("axpy", N, seed=1), make_scheduler(order[-1]))
        assert e_b.timeline.events == e_v.timeline.events
        assert e_b.timeline.faults == e_v.timeline.faults
        assert len(e_b.timeline.faults) > 0

    def test_block_then_dynamic_chunk_log_is_the_dynamic_cells(self):
        # Fault-free, static first: introspection is positional — the
        # last request's, whatever kind of scheduler ran before it.
        kw = dict(machine=gpu4_node(), seed=0, record_events=True)
        e_b = BatchEngine(**kw)
        e_b.run_many([
            BatchRequest(make_kernel("axpy", N, seed=1), make_scheduler(p))
            for p in ("BLOCK", "SCHED_DYNAMIC")
        ])
        e_v = OffloadEngine(**kw)
        e_v.run(make_kernel("axpy", N, seed=1), make_scheduler("SCHED_DYNAMIC"))
        # not the BLOCK cell's one-per-device
        assert len(e_b.timeline.events) > 4
        assert e_b.timeline.events == e_v.timeline.events


@pytest.mark.parametrize("policy", ["BLOCK", "MODEL_2_AUTO"])
def test_serialized_offload_bit_identical(policy):
    kw = dict(machine=gpu4_node(), seed=0, serialize_offload=True)
    kern = make_kernel("axpy", N, seed=1)
    r_v = OffloadEngine(**kw).run(kern, make_scheduler(policy))
    r_b = BatchEngine(**kw).run(kern, make_scheduler(policy))
    assert pickle.dumps(r_v) == pickle.dumps(r_b)
