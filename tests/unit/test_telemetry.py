"""Unit tests for the telemetry layer: registry, sinks, spans, text.

The load-bearing properties:

* the registry survives a multi-thread hammer with a concurrent
  scraper — every snapshot a scraper takes is internally consistent
  (counters only ever grow between snapshots) and the final totals
  are exact;
* the Prometheus rendering is byte-stable (golden test) — it is the
  scrape contract external collectors parse;
* rotated JSONL logs read back in write order across segments, and
  torn lines degrade to skipped records, never exceptions;
* span records carry the documented schema and stitch parent/trace
  ids through nesting and ``bind_trace``.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

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
def _span_sink_detached():
    """No test leaves a span sink configured for the next."""
    yield
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
                        "keys": 1, "live": True,
                    }
                },
                "fleet": {"desired": 2, "halted": True},
            },
            {},
        )
        assert "WORKER POOL HALTED" in frame
        assert "w-1" in frame

    def test_render_screen_shows_the_pool_and_the_results_rate(self):
        def samples(results):
            reg = MetricsRegistry()
            reg.counter("repro_broker_results_total").inc(results)
            return parse_prometheus(render_prometheus(reg.snapshot()))

        health = {
            "live_workers": 2,
            "fleet": {
                "desired": 2, "halted": False, "live": 2, "spawned": 3,
            },
        }
        first = render_screen(health, samples(10))
        assert "workers=2 live / 2 desired" in first
        assert "spawned=3" in first
        assert "results=0.0/min" in first  # no rate before a delta
        assert "HALTED" not in first
        frame = render_screen(
            health, samples(40), previous=samples(10), elapsed=30.0
        )
        assert "results=60.0/min" in frame


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
        spec executes to pickle-identical reports through the
        recording ``execute_spec`` (spans configured and all) and
        through the ``_execute_spec_inner`` it wraps."""
        import pickle

        from repro.runner import PolicySpec, timing_job
        from repro.runner.runner import _execute_spec_inner, execute_spec

        spec = timing_job("em3d", "tiny", PolicySpec(name="ltp"))
        tm.configure(tmp_path / "telemetry")
        with_telemetry = pickle.dumps(execute_spec(spec))
        without = pickle.dumps(_execute_spec_inner(spec))
        assert with_telemetry == without
        # and the instrumented run really did record something
        assert list(tm.read_spans(tmp_path / "telemetry"))


#: the simulator packages: recording happens around them, once per spec
#: in the runner and once per frame in the broker and the worker
SIMULATOR_PACKAGES = (
    "core", "dsi", "ext", "protocol", "sim", "timing", "trace",
)


def _imported_modules(path: Path, package: tuple) -> list:
    """Every module an ``import`` statement in ``path`` names (for
    ``from M import a``: ``M`` and ``M.a``), relative imports resolved
    against ``package``."""
    import ast

    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[:len(package) - node.level + 1]
                base = ".".join(parent + ((base,) if base else ()))
            names += [base] + [f"{base}.{a.name}" for a in node.names]
    return names


class TestSimulatorsStayTelemetryFree:
    def test_no_simulator_module_imports_telemetry(self):
        """Counters always record, so no off switch can show what an
        instrument on a per-event path costs; none may be there: no
        module of a simulator package imports ``repro.telemetry``."""
        import repro

        src = Path(repro.__file__).resolve().parent
        offenders = []
        for name in SIMULATOR_PACKAGES:
            for path in sorted((src / name).rglob("*.py")):
                package = ("repro",) + path.relative_to(src).parent.parts
                if any(
                    module == "repro.telemetry"
                    or module.startswith("repro.telemetry.")
                    for module in _imported_modules(path, package)
                ):
                    offenders.append(str(path.relative_to(src)))
        assert offenders == []


class TestEndpointImport:
    def test_cli_import_loads_no_http_server(self):
        """Only ``repro serve --metrics-port`` binds the scrape
        endpoint, so a fresh process that imports the runner and the
        CLI (every run-all, pool and fleet worker) loads neither
        ``http.server`` nor ``ssl``."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro.runner, repro.experiments.cli; "
            "print(sorted({'http.server', 'ssl'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert done.stdout.strip() == "[]"
