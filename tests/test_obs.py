"""Unit tests for the observability layer (src/repro/obs).

Covers instrument semantics (counters, gauges, histograms, timers,
labeled children, merge, reset), registry factories, the null registry,
and the exporter round-trip (snapshot -> JSON -> parse -> equal).
"""

import json
import math

import pytest

from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    Timer,
    build_snapshot,
    json_to_snapshot,
    render_report,
    snapshot_to_json,
    snapshot_to_prometheus,
)


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_labeled_children_are_distinct(self):
        c = Counter("c", labelnames=("path",))
        c.labels(path="scan").inc(2)
        c.labels(path="index").inc(5)
        assert c.labels(path="scan").value == 2
        assert c.labels(path="index").value == 5

    def test_wrong_labels_raise(self):
        c = Counter("c", labelnames=("path",))
        with pytest.raises(ValueError):
            c.labels(kind="x")
        with pytest.raises(ValueError):
            c.labels()


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == pytest.approx(7.0)

    def test_set_function_is_lazy(self):
        g = Gauge("g")
        box = {"v": 1.0}
        g.set_function(lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 9.0
        assert g.value == 9.0


class TestHistogram:
    def test_bucketing_and_moments(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for x in (0.5, 1.5, 1.5, 3.0, 10.0):
            h.observe(x)
        assert h.count == 5
        assert h.sum == pytest.approx(16.5)
        assert h.stats.minimum == 0.5
        assert h.stats.maximum == 10.0
        assert h.cumulative_counts() == [1, 3, 4, 5]

    def test_boundary_value_lands_in_its_bucket(self):
        # cumulative semantics: le=1.0 includes an observation of exactly 1.0
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.cumulative_counts() == [1, 1, 1]

    def test_quantiles_interpolated_and_clamped(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for x in (0.5, 1.5, 2.5, 3.5, 4.5):
            h.observe(x)
        assert h.quantile(0.0) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(4.5)
        q50 = h.quantile(0.5)
        assert 0.5 <= q50 <= 4.5
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_is_the_metrics_table_quantile(self):
        """Lower buckets empty: both interpolate from the last non-empty
        bucket's bound (here the observed minimum), not the bucket's own
        lower bound."""
        from repro.obs.export import _series_quantile
        reg = MetricsRegistry()
        for x in (0.3, 0.35, 0.4, 0.45):
            reg.observe("h", x, buckets=(0.01, 0.1, 0.25, 0.5, 1.0))
        series, = reg.snapshot()["metrics"][0]["series"]
        h = reg.get("h")
        for q in (0.1, 0.5, 0.9, 1.0):
            assert h.quantile(q) == _series_quantile(series, q)
        assert h.quantile(0.5) == pytest.approx(0.4)
        assert h.quantile(0.1) == pytest.approx(0.32)

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestTimer:
    def test_records_clock_span(self):
        clock = {"t": 100.0}
        h = Histogram("h", buckets=(1.0, 10.0))
        with Timer(h, lambda: clock["t"]):
            clock["t"] = 102.5
        assert h.count == 1
        assert h.sum == pytest.approx(2.5)

    def test_registry_time_with_labels(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry(clock=lambda: clock["t"])
        with reg.time("step_seconds", step="reserve"):
            clock["t"] = 0.25
        h = reg.get("step_seconds")
        assert h.labelnames == ("step",)
        assert h.labels(step="reserve").count == 1

    def test_records_even_on_exception(self):
        clock = {"t": 0.0}
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(RuntimeError):
            with Timer(h, lambda: clock["t"]):
                clock["t"] = 0.5
                raise RuntimeError("boom")
        assert h.count == 1


class TestRegistry:
    def test_factories_are_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")

    def test_labelname_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("m", labelnames=("b",))

    def test_one_liners_infer_labelnames(self):
        reg = MetricsRegistry()
        reg.count("queries_total", path="scan")
        reg.count("queries_total", path="index")
        reg.observe("sizes", 3, buckets=DEFAULT_SIZE_BUCKETS, path="scan")
        reg.set_gauge("members", 8)
        assert reg.get("queries_total").labels(path="scan").value == 1
        assert reg.get("sizes").labels(path="scan").count == 1
        assert reg.get("members").value == 8

    def test_null_registry_records_nothing(self):
        for reg in (NullMetricsRegistry(), NULL_METRICS):
            reg.count("c", path="x")
            reg.observe("h", 1.0, step="a")
            reg.set_gauge("g", 5.0)
            with reg.time("t"):
                pass
            reg.counter("c2").labels(anything="goes").inc()
            assert build_snapshot(reg) == {"metrics": []}


class TestSeriesMemo:
    """The one-liners memoise (name, labels) -> leaf series; everything
    that is not a repeat must still be validated exactly as before."""

    def _warm(self):
        reg = MetricsRegistry()
        for _ in range(3):
            reg.count("c", path="scan")
            reg.observe("h", 1.0, step="a")
            reg.set_gauge("g", 2.0, shard="0")
            reg.count("plain")
        return reg

    def test_warm_memo_still_rejects_bad_calls(self):
        reg = self._warm()
        with pytest.raises(ValueError, match="declared with labels"):
            reg.count("c", step="scan")            # wrong label name
        with pytest.raises(ValueError, match="declared with labels"):
            reg.count("c")                         # labels dropped
        with pytest.raises(ValueError, match="declared with labels"):
            reg.count("plain", path="scan")        # labels added
        with pytest.raises(ValueError, match="is a counter, not a"):
            reg.observe("c", 1.0, path="scan")     # kind clash
        with pytest.raises(ValueError, match="is a histogram, not a"):
            reg.set_gauge("h", 1.0, step="a")
        with pytest.raises(ValueError, match="is a gauge, not a"):
            reg.time("g", shard="0")
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.count("c", n=-1, path="scan")      # negative on a hit
        # none of the rejected calls left a trace
        assert reg.get("c").labels(path="scan").value == 3
        assert sorted(reg.get("c")._children) == [("scan",)]
        assert reg.get("plain").value == 3

    def test_no_series_appears_before_its_first_use(self):
        reg = self._warm()
        names = [(m["name"], [s["labels"] for s in m["series"]])
                 for m in build_snapshot(reg)["metrics"]]
        assert names == [("c", [{"path": "scan"}]),
                         ("g", [{"shard": "0"}]),
                         ("h", [{"step": "a"}]),
                         ("plain", [{}])]

    def test_keyword_order_and_stringified_values_share_a_series(self):
        reg = MetricsRegistry()
        for _ in range(2):
            reg.count("c", a="1", b="x")
            reg.count("c", b="x", a="1")
            reg.count("c", a=1, b="x")   # keyed by str(value), never memoised
        assert reg.get("c").labels(a="1", b="x").value == 6
        assert len(reg.get("c")._children) == 1

    def test_timer_and_exemplars_go_through_the_memo(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry(clock=lambda: clock["t"])
        reg.set_exemplar_provider(lambda: "t000042")
        for _ in range(2):
            with reg.time("t_seconds", step="a"):
                clock["t"] += 0.5
        leaf = reg.get("t_seconds").labels(step="a")
        assert leaf.count == 2
        assert set(leaf.exemplars.values()) == {(0.5, "t000042")}


class TestExportRoundTrip:
    def _populated(self):
        clock = {"t": 0.0}
        reg = MetricsRegistry(clock=lambda: clock["t"])
        reg.count("requests_total", path="scan")
        reg.count("requests_total", n=3, path="index")
        reg.set_gauge("depth", 4)
        for x in (0.002, 0.02, 0.2, 2.0):
            reg.observe("latency_seconds", x, step="reserve")
        return reg

    def test_snapshot_json_round_trip(self):
        snapshot = build_snapshot(self._populated())
        text = snapshot_to_json(snapshot)
        assert json_to_snapshot(text) == snapshot
        # byte-stability: rebuilding from an identical registry matches
        assert snapshot_to_json(build_snapshot(self._populated())) == text

    def test_json_is_strict(self):
        reg = MetricsRegistry()
        reg.histogram("empty")  # min/max are NaN -> must export as null
        text = reg.to_json()
        assert "NaN" not in text and "Infinity" not in text
        series = json.loads(text)["metrics"][0]["series"][0]
        assert series["min"] is None
        assert series["count"] == 0

    def test_prometheus_format(self):
        text = snapshot_to_prometheus(build_snapshot(self._populated()))
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{path="index"} 3.0' in text
        assert '# TYPE latency_seconds histogram' in text
        assert 'latency_seconds_bucket{le="+Inf",step="reserve"} 4' in text
        assert 'latency_seconds_count{step="reserve"} 4' in text

    def test_snapshot_orders_names_and_series(self):
        snapshot = build_snapshot(self._populated())
        names = [m["name"] for m in snapshot["metrics"]]
        assert names == sorted(names)
        requests = next(m for m in snapshot["metrics"]
                        if m["name"] == "requests_total")
        keys = [s["labels"]["path"] for s in requests["series"]]
        assert keys == sorted(keys)

    def test_render_report_mentions_every_series(self):
        report = render_report(build_snapshot(self._populated()))
        assert 'requests_total{path="scan"}' in report
        assert 'latency_seconds{step="reserve"}' in report
        assert "depth" in report
