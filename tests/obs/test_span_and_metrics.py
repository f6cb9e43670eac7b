"""Span primitives and the deterministic metrics registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.span import CAT_STAGE, Span, freeze_args


class TestSpan:
    def test_duration_and_instant(self):
        s = Span("compute", CAT_STAGE, 0, "cpu-0", 1.0, 2.5)
        assert s.duration == 1.5
        assert not s.is_instant
        assert Span("chunk", "mark", 0, "cpu-0", 2.0, 2.0).is_instant

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError):
            Span("compute", CAT_STAGE, 0, "cpu-0", 2.0, 1.0)

    def test_args_are_sorted_and_queryable(self):
        args = freeze_args({"b": 2, "a": 1})
        assert args == (("a", 1), ("b", 2))
        s = Span("compute", CAT_STAGE, 0, "cpu-0", 0.0, 1.0, args=args)
        assert s.arg("a") == 1
        assert s.arg("missing", 42) == 42

    def test_to_dict_is_json_ready(self):
        s = Span("xfer_in", CAT_STAGE, 1, "k40-1", 0.5, 0.75,
                 args=freeze_args({"chunk": "0:100"}))
        d = s.to_dict()
        assert d == {
            "name": "xfer_in", "cat": CAT_STAGE, "devid": 1,
            "device": "k40-1", "t0": 0.5, "t1": 0.75,
            "args": {"chunk": "0:100"},
        }

    def test_spans_are_hashable(self):
        s = Span("compute", CAT_STAGE, 0, "cpu-0", 0.0, 1.0,
                 args=freeze_args({"k": 1}))
        assert s in {s}


class TestMetrics:
    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_counter_get_or_create_by_labels(self):
        reg = MetricsRegistry()
        reg.inc("chunks", device="cpu-0")
        reg.inc("chunks", device="cpu-0")
        reg.inc("chunks", device="k40-1")
        assert reg.counter_value("chunks", device="cpu-0") == 2
        assert reg.counter_value("chunks", device="k40-1") == 1
        assert reg.counter_value("chunks", device="mic-0") == 0

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.set_gauge("cache_hits", 7)
        reg.set_gauge("cache_hits", 3)
        assert next(reg.gauges()).value == 3

    def test_histogram_buckets_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_histogram_cumulative_ends_with_inf(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 1), (10.0, 2), (float("inf"), 3)]
        assert h.total == 105.5
        assert h.count == 3

    def test_histogram_buckets_pinned_at_first_registration(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5, buckets=(1.0, 2.0))
        # A later registration with different buckets keeps the first set,
        # so identical runs always land values in identical buckets.
        reg.observe("lat", 0.5, buckets=(100.0,), device="x")
        assert all(h.buckets == (1.0, 2.0) for h in reg.histograms())

    def test_default_bucket_families(self):
        assert DEFAULT_LATENCY_BUCKETS == tuple(sorted(DEFAULT_LATENCY_BUCKETS))
        assert DEFAULT_SIZE_BUCKETS == tuple(sorted(DEFAULT_SIZE_BUCKETS))

    def test_snapshot_is_deterministic(self):
        def build(order):
            reg = MetricsRegistry()
            for name, labels in order:
                reg.inc(name, **labels)
            reg.observe("lat", 0.01)
            return reg.snapshot()

        a = build([("z", {"d": "1"}), ("a", {}), ("z", {"d": "0"})])
        b = build([("a", {}), ("z", {"d": "0"}), ("z", {"d": "1"})])
        assert a == b
