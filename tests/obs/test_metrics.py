"""MetricsRegistry tests: counters, gauges, histograms, exporters."""

import sys
import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    TOKEN_BUCKETS,
    MetricsRegistry,
    labels_key,
    parse_prometheus,
)


class TestCounters:
    def test_add_and_read(self):
        registry = MetricsRegistry()
        registry.counter_add("hits", 2)
        registry.counter_add("hits", 3)
        assert registry.counter_value("hits") == 5

    def test_label_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter_add("req", 1, {"stage": "generate"})
        registry.counter_add("req", 4, {"stage": "execute"})
        assert registry.counter_value("req", {"stage": "generate"}) == 1
        assert registry.counter_value("req", {"stage": "execute"}) == 4

    def test_label_subset_sums_matching_series(self):
        registry = MetricsRegistry()
        registry.counter_add("req", 1, {"cell": "a", "result": "hit"})
        registry.counter_add("req", 2, {"cell": "a", "result": "miss"})
        registry.counter_add("req", 8, {"cell": "b", "result": "hit"})
        assert registry.counter_value("req", {"cell": "a"}) == 3
        assert registry.counter_value("req", {"result": "hit"}) == 9
        assert registry.counter_value("req") == 11

    def test_counter_series_filters(self):
        registry = MetricsRegistry()
        registry.counter_add("req", 1, {"cell": "a", "stage": "x"})
        registry.counter_add("req", 2, {"cell": "b", "stage": "x"})
        series = registry.counter_series("req", {"cell": "a"})
        assert series == [({"cell": "a", "stage": "x"}, 1)]

    def test_unknown_counter_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0


class TestGauges:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        registry.gauge_set("inflight", 3)
        registry.gauge_add("inflight", 2)
        registry.gauge_add("inflight", -4)
        assert registry.gauge_value("inflight") == 1


class TestHistograms:
    def test_count_and_quantile(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.003, 0.004, 2.0):
            registry.observe("lat", value, buckets=LATENCY_BUCKETS)
        assert registry.histogram_count("lat") == 5
        p50 = registry.histogram_quantile("lat", 0.5)
        assert 0.0 < p50 < 0.01

    def test_quantile_merges_label_series(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.2, {"stage": "a"})
        registry.observe("lat", 0.2, {"stage": "b"})
        assert registry.histogram_count("lat") == 2
        assert registry.histogram_count("lat", {"stage": "a"}) == 1

    def test_empty_histogram_quantile_is_zero(self):
        assert MetricsRegistry().histogram_quantile("lat", 0.5) == 0.0

    def test_first_observation_fixes_buckets(self):
        registry = MetricsRegistry()
        registry.observe("tok", 100, buckets=(10, 100, 1000))
        registry.observe("tok", 5000, buckets=(1, 2))  # ignored bounds
        snap = registry.snapshot()
        assert snap["histograms"]["tok"][0]["buckets"] == [10, 100, 1000]


class TestThreadSafety:
    def test_concurrent_counter_adds(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter_add("n", 1, {"t": "x"})

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("n") == 8000


class TestExport:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter_add("repro_examples_total", 3, {"cell": "a b"})
        registry.gauge_set("repro_inflight_examples", 2)
        registry.observe("repro_stage_latency_seconds", 0.003,
                         {"stage": "generate"})
        return registry

    def test_prometheus_text_shape(self):
        text = self.make_registry().to_prometheus()
        assert '# TYPE repro_examples_total counter' in text
        assert 'repro_examples_total{cell="a b"} 3' in text
        assert '# TYPE repro_stage_latency_seconds histogram' in text
        assert 'le="+Inf"' in text
        assert "repro_stage_latency_seconds_sum" in text
        assert "repro_stage_latency_seconds_count" in text

    def test_prometheus_roundtrip_parses(self):
        text = self.make_registry().to_prometheus()
        samples = parse_prometheus(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["repro_examples_total"] == [({"cell": "a b"}, 3.0)]
        assert by_name["repro_stage_latency_seconds_count"][0][1] == 1.0

    def test_label_escaping_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter_add("m", 1, {"q": 'say "hi"\\now'})
        (name, labels, value), = parse_prometheus(registry.to_prometheus())
        assert name == "m"
        assert labels == {"q": 'say "hi"\\now'}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all{")
        with pytest.raises(ValueError):
            parse_prometheus('m{k=unquoted} 1')

    def test_snapshot_is_json_ready(self):
        import json

        snap = self.make_registry().snapshot()
        json.dumps(snap)
        assert set(snap) == {"counters", "gauges", "histograms"}


class TestBoundSeries:
    """A bound series records exactly what the unbound calls record."""

    SAMPLES = [
        ("c", 2.0, {"stage": "generate", "cell": "a"}),
        ("c", 3.0, {"cell": "a", "stage": "generate"}),
        ("c", 1.5, {"cell": "b", "stage": 7}),
        ("c", 1.0, None),
        ("d", 4.0, {"kind": "prompt"}),
    ]
    OBSERVATIONS = [
        ("h", 0.003, {"stage": "generate"}, LATENCY_BUCKETS),
        ("h", 0.2, {"stage": "execute"}, LATENCY_BUCKETS),
        ("h", 9.0, {"stage": "generate"}, LATENCY_BUCKETS),
        ("t", 100, {"model": "m"}, TOKEN_BUCKETS),
        ("t", 5000, {"model": "m"}, TOKEN_BUCKETS),
    ]
    GAUGE_DELTAS = [
        ("g", 1.0, {"cell": "a"}),
        ("g", 1.0, {"cell": "a"}),
        ("g", -1.0, {"cell": "a"}),
        ("g", 2.5, None),
    ]

    def unbound(self):
        registry = MetricsRegistry()
        for name, value, labels in self.SAMPLES:
            registry.counter_add(name, value, labels)
        for name, value, labels, buckets in self.OBSERVATIONS:
            registry.observe(name, value, labels, buckets=buckets)
        for name, delta, labels in self.GAUGE_DELTAS:
            registry.gauge_add(name, delta, labels)
        return registry

    def bound(self):
        registry = MetricsRegistry()
        for name, value, labels in self.SAMPLES:
            registry.bind_counter(name, labels).add(value)
        for name, value, labels, buckets in self.OBSERVATIONS:
            registry.bind_histogram(name, labels, buckets=buckets).observe(value)
        for name, delta, labels in self.GAUGE_DELTAS:
            registry.bind_gauge(name, labels).add(delta)
        return registry

    def test_same_exports(self):
        assert self.bound().snapshot() == self.unbound().snapshot()
        assert self.bound().to_prometheus() == self.unbound().to_prometheus()

    def test_series_reused_across_samples(self):
        registry = MetricsRegistry()
        counter = registry.bind_counter("c", {"cell": "a"})
        histogram = registry.bind_histogram("h", {"stage": "x"})
        for _ in range(3):
            counter.add(2)
            histogram.observe(0.01)
        registry.counter_add("c", 1, {"cell": "a"})
        registry.observe("h", 0.01, {"stage": "x"})
        assert registry.counter_value("c", {"cell": "a"}) == 7
        assert registry.histogram_count("h", {"stage": "x"}) == 4

    def test_bound_gauge_shares_the_series(self):
        registry = MetricsRegistry()
        gauge = registry.bind_gauge("g", {"cell": "a"})
        gauge.add(1)
        registry.gauge_set("g", 5, {"cell": "a"})
        gauge.add(-2)
        registry.gauge_add("g", 1, {"cell": "a"})
        assert registry.gauge_value("g", {"cell": "a"}) == 4

    def test_first_sample_fixes_buckets(self):
        # Whichever recording comes first — bound or unbound — fixes
        # the family's buckets, exactly as two unbound observes do.
        for first_bound in (True, False):
            registry = MetricsRegistry()
            wide = registry.bind_histogram("h", {"s": "a"}, buckets=(1, 10))
            if first_bound:
                wide.observe(5)
                registry.observe("h", 5, {"s": "b"}, buckets=(2, 3))
            else:
                registry.observe("h", 5, {"s": "b"}, buckets=(2, 3))
                wide.observe(5)
            reference = MetricsRegistry()
            order = [("a", (1, 10)), ("b", (2, 3))]
            for label, buckets in order if first_bound else order[::-1]:
                reference.observe("h", 5, {"s": label}, buckets=buckets)
            assert registry.snapshot() == reference.snapshot()
            expected = (1, 10) if first_bound else (2, 3)
            for series in registry.snapshot()["histograms"]["h"]:
                assert tuple(series["buckets"]) == expected

    def test_unused_series_leave_no_family(self):
        registry = MetricsRegistry()
        registry.bind_counter("c", {"cell": "a"})
        registry.bind_histogram("h", {"stage": "x"})
        registry.bind_gauge("g", {"cell": "a"})
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert registry.to_prometheus() == "\n"

    def test_concurrent_bound_adds(self):
        registry = MetricsRegistry()
        counter = registry.bind_counter("n", {"t": "x"})
        gauge = registry.bind_gauge("g")

        def work():
            for _ in range(1000):
                counter.add(1)
                registry.counter_add("n", 1, {"t": "x"})
                gauge.add(1)
                registry.gauge_add("g", -2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.counter_value("n") == 16000
        assert registry.gauge_value("g") == -8000


class TestLabelsKey:
    def test_canonical_ordering(self):
        assert labels_key({"b": 1, "a": 2}) == (("a", "2"), ("b", "1"))
        assert labels_key(None) == ()
        assert labels_key({}) == ()
