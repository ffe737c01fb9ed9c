"""Unit tests for the telemetry layer: registry, sinks, spans, text.

The load-bearing properties:

* the registry survives a multi-thread hammer with a concurrent
  scraper — every snapshot a scraper takes is internally consistent
  (counters only ever grow between snapshots) and the final totals
  are exact;
* the Prometheus rendering is byte-stable (golden test) — it is the
  scrape contract external collectors parse;
* disabled telemetry is a no-op that allocates no series;
* rotated JSONL logs read back in write order across segments, and
  torn lines degrade to skipped records, never exceptions;
* span records carry the documented schema and stitch parent/trace
  ids through nesting and ``bind_trace``.
"""

import json
import math
import threading

import pytest

import repro.telemetry as tm
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.metrics import MetricsRegistry, parse_label_key
from repro.telemetry.sink import RotatingJsonlWriter, read_jsonl, rotated_segments
from repro.telemetry.top import (
    histogram_quantile,
    metric_total,
    parse_prometheus,
    render_screen,
)


@pytest.fixture(autouse=True)
def _telemetry_on():
    """Each test runs with collection on and no span sink leaking."""
    was = tm.enabled()
    tm.set_enabled(True)
    yield
    tm.set_enabled(was)
    tm.shutdown()


class TestRegistryConcurrency:
    THREADS = 8
    INCREMENTS = 2000

    def test_hammer_with_concurrent_scraper_is_exact_and_monotone(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_total")
        hist = reg.histogram("repro_test_seconds", buckets=(0.5, 1.0))
        stop = threading.Event()
        monotone_failures = []
        snapshots = []

        def hammer(tid: int):
            for i in range(self.INCREMENTS):
                counter.inc(worker=f"w-{tid}")
                counter.inc(2)
                hist.observe(i % 3 * 0.5)

        def scrape():
            last = {}
            while not stop.is_set():
                snap = reg.snapshot()
                snapshots.append(snap)
                for name, series in snap["counters"].items():
                    for key, value in series.items():
                        prev = last.get((name, key), 0)
                        if value < prev:
                            monotone_failures.append(
                                (name, key, prev, value)
                            )
                        last[(name, key)] = value
                # histogram count must equal the bucket-count sum in
                # every snapshot — a torn read would break this
                for series in snap["histograms"].values():
                    for data in series.values():
                        assert data["count"] == sum(data["counts"])

        threads = [
            threading.Thread(target=hammer, args=(tid,))
            for tid in range(self.THREADS)
        ]
        scraper = threading.Thread(target=scrape)
        scraper.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        scraper.join()

        assert not monotone_failures
        assert len(snapshots) > 0
        assert counter.value() == self.THREADS * self.INCREMENTS * 2
        for tid in range(self.THREADS):
            assert counter.value(worker=f"w-{tid}") == self.INCREMENTS
        total = sum(
            data["count"]
            for data in hist.collect().values()
        )
        assert total == self.THREADS * self.INCREMENTS

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_thing_total")

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")


class TestDisabled:
    def test_disabled_mutators_record_nothing(self):
        tm.set_enabled(False)
        reg = MetricsRegistry()
        reg.counter("c_total").inc(5, worker="w")
        reg.gauge("g").set(3)
        reg.histogram("h_seconds").observe(0.2)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_disabled_span_emits_nothing(self, tmp_path):
        tm.configure(tmp_path / "telemetry")
        tm.set_enabled(False)
        with tm.span("op"):
            pass
        assert list(tm.read_spans(tmp_path / "telemetry")) == []


class TestPrometheusGolden:
    def test_rendering_is_byte_stable(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_demo_total")
        c.inc(3, kind="a")
        c.inc(2)
        reg.gauge("repro_queue_depth").set(7)
        h = reg.histogram("repro_wait_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        worker = MetricsRegistry()
        worker.counter("repro_worker_executed_total").inc(
            4, outcome="ok"
        )
        text = render_prometheus(
            reg.snapshot(), {"w-1": worker.snapshot()}
        )
        assert text == (
            "# TYPE repro_demo_total counter\n"
            "repro_demo_total 2\n"
            'repro_demo_total{kind="a"} 3\n'
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 7\n"
            "# TYPE repro_wait_seconds histogram\n"
            'repro_wait_seconds_bucket{le="0.1"} 1\n'
            'repro_wait_seconds_bucket{le="1"} 2\n'
            'repro_wait_seconds_bucket{le="+Inf"} 3\n'
            "repro_wait_seconds_sum 5.55\n"
            "repro_wait_seconds_count 3\n"
            "# TYPE repro_worker_executed_total counter\n"
            'repro_worker_executed_total{outcome="ok",worker="w-1"} 4\n'
        )

    def test_label_escaping_round_trips_through_top_parser(self):
        reg = MetricsRegistry()
        reg.counter("weird_total").inc(1, path='a"b\\c\nd')
        text = render_prometheus(reg.snapshot())
        parsed = parse_prometheus(text)
        (labels, value), = parsed["weird_total"]
        assert dict(labels) == {"path": 'a"b\\c\nd'}
        assert value == 1

    def test_label_key_round_trips(self):
        assert parse_label_key("a=1,b=x") == {"a": "1", "b": "x"}
        assert parse_label_key("") == {}


class TestTopConsumer:
    def test_histogram_quantile_merges_label_sets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for worker in ("w-1", "w-2"):
            h.observe(0.05, worker=worker)
            h.observe(5.0, worker=worker)
        samples = parse_prometheus(render_prometheus(reg.snapshot()))
        assert histogram_quantile(samples, "lat_seconds", 0.5) == 0.1
        assert histogram_quantile(samples, "lat_seconds", 0.99) == 10.0
        assert histogram_quantile(samples, "missing", 0.5) is None
        assert metric_total(samples, "lat_seconds_count") == 4

    def test_render_screen_survives_minimal_documents(self):
        frame = render_screen({}, {})
        assert "broker:" in frame
        frame = render_screen(
            {
                "queue_depth": 2,
                "workers": {
                    "w-1": {
                        "age_s": 0.5, "rtt_s": 0.01,
                        "keys": 1, "live": True, "draining": False,
                    }
                },
                "fleet": {"policy": "queue", "halted": True},
            },
            {},
        )
        assert "AUTOSCALER HALTED" in frame
        assert "w-1" in frame


class TestRotatingSink:
    def test_rotation_keeps_order_and_caps_segments(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = RotatingJsonlWriter(path, max_bytes=120, backups=2)
        for i in range(40):
            writer.write({"i": i})
        segments = rotated_segments(path)
        assert segments[-1] == path
        assert len(segments) <= 3
        values = [r["i"] for r in read_jsonl(path)]
        # a contiguous, ordered suffix of what was written
        assert values == sorted(values)
        assert values[-1] == 39
        assert values == list(range(values[0], 40))

    def test_torn_and_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"ok": 1}\nnot json\n{"torn": \n{"ok": 2}\n[1,2]\n'
        )
        assert list(read_jsonl(path)) == [{"ok": 1}, {"ok": 2}]

    def test_write_errors_are_swallowed(self, tmp_path):
        writer = RotatingJsonlWriter(tmp_path / "dir-as-file")
        (tmp_path / "dir-as-file").mkdir()
        writer.write({"x": 1})  # must not raise


class TestSpans:
    def test_span_schema_and_nesting(self, tmp_path):
        tm.configure(tmp_path / "telemetry")
        with tm.span("outer", workload="em3d"):
            with tm.span("inner"):
                pass
        records = list(tm.read_spans(tmp_path / "telemetry"))
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        for record in records:
            assert record["schema"] == tm.SPAN_SCHEMA
            assert record["dur_ms"] >= 0
            assert record["pid"] > 0
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert outer["parent"] == ""
        assert outer["attrs"] == {"workload": "em3d"}

    def test_bind_trace_adopts_wire_id(self, tmp_path):
        tm.configure(tmp_path / "telemetry")
        with tm.bind_trace("feedbeef12345678"):
            with tm.span("worker.execute"):
                pass
        (record,) = tm.read_spans(tmp_path / "telemetry")
        assert record["trace"] == "feedbeef12345678"
        # a None trace id binds nothing (old brokers send none)
        with tm.bind_trace(None):
            assert tm.current_trace_id() is None

    def test_span_records_error_and_reraises(self, tmp_path):
        tm.configure(tmp_path / "telemetry")
        with pytest.raises(RuntimeError):
            with tm.span("boom"):
                raise RuntimeError("no")
        (record,) = tm.read_spans(tmp_path / "telemetry")
        assert record["error"] == "RuntimeError"

    def test_no_sink_means_no_emission(self):
        with tm.span("op") as attrs:
            attrs["extra"] = 1  # must not raise without a sink

    def test_configure_sets_env_for_forked_children(
        self, tmp_path, monkeypatch
    ):
        import os

        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        directory = tm.configure(tmp_path / "telemetry")
        assert os.environ["REPRO_TELEMETRY_DIR"] == str(directory)
        tm.shutdown()
        assert "REPRO_TELEMETRY_DIR" not in os.environ


class TestResultPathIsolation:
    def test_reports_byte_identical_telemetry_on_and_off(
        self, tmp_path
    ):
        """Telemetry must stay off the result byte-path: the same
        spec executes to pickle-identical reports with collection on
        (spans configured and all) and fully disabled."""
        import pickle

        from repro.runner import PolicySpec, timing_job
        from repro.runner.runner import execute_spec

        spec = timing_job("em3d", "tiny", PolicySpec(name="ltp"))
        tm.configure(tmp_path / "telemetry")
        tm.set_enabled(True)
        with_telemetry = pickle.dumps(execute_spec(spec))
        tm.set_enabled(False)
        without = pickle.dumps(execute_spec(spec))
        assert with_telemetry == without
        # and the instrumented run really did record something
        tm.set_enabled(True)
        assert list(tm.read_spans(tmp_path / "telemetry"))


class TestFleetEventLogReaders:
    def test_load_fleet_reads_rotated_segments_in_order(self, tmp_path):
        from repro.fleet import CLAIMS_DIRNAME
        from repro.store.report import load_fleet

        claims = tmp_path / CLAIMS_DIRNAME
        claims.mkdir()
        writer = RotatingJsonlWriter(
            claims / "fleet_events.jsonl", max_bytes=300, backups=3
        )
        for i in range(30):
            writer.write({
                "when": float(i), "action": "up", "live": i,
                "desired": i, "queue_depth": 0, "throughput": 0.0,
                "reason": "grow",
            })
        fleet = load_fleet(tmp_path)
        whens = [event["when"] for event in fleet["events"]]
        assert whens == sorted(whens)
        assert whens[-1] == 29.0
        assert len(rotated_segments(claims / "fleet_events.jsonl")) > 1
