"""Tracer plumbing: recording, queries, resolution, the null tracer."""

from repro.obs.span import CAT_MARK, CAT_STAGE
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    resolve_tracer,
)


class TestTracer:
    def test_records_spans_in_emission_order(self):
        t = Tracer()
        t.span("compute", CAT_STAGE, 0, "cpu-0", 0.0, 1.0)
        t.instant("chunk", CAT_MARK, 0, "cpu-0", 1.0, iters=10)
        assert [s.name for s in t.spans] == ["compute", "chunk"]
        assert t.spans[1].is_instant
        assert t.spans[1].arg("iters") == 10

    def test_queries(self):
        t = Tracer()
        t.span("compute", CAT_STAGE, 0, "cpu-0", 0.0, 1.0)
        t.span("compute", CAT_STAGE, 1, "k40-1", 0.0, 2.0)
        t.span("xfer_in", CAT_STAGE, 1, "k40-1", 2.0, 3.0)
        assert len(t.by_name("compute")) == 2
        assert t.device_names() == {0: "cpu-0", 1: "k40-1"}

    def test_run_level_spans_hidden_from_device_names(self):
        t = Tracer()
        t.span("offload", "offload", -1, "", 0.0, 1.0)
        assert t.device_names() == {}


class TestNullTracer:
    def test_discards_everything(self):
        n = NullTracer()
        n.span("compute", CAT_STAGE, 0, "cpu-0", 0.0, 1.0)
        n.instant("chunk", CAT_MARK, 0, "cpu-0", 1.0)
        assert n.spans == []
        assert not n.enabled
        assert n.metrics is None

    def test_singleton_is_stateless(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not hasattr(NULL_TRACER, "__dict__")


class TestResolveTracer:
    def test_resolve_tracer(self):
        t = Tracer()
        assert resolve_tracer(t) is t
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(NULL_TRACER) is NULL_TRACER
