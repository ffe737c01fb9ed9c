"""End-to-end scrape of a live, tokened broker's metrics endpoint.

One persistent broker with wire auth on, one real worker heartbeating
against it, one grid submitted and drained — then the observability
surface is read back exactly the way an external collector would:
``GET /metrics`` (Prometheus text) and ``GET /healthz`` (JSON) over
HTTP. Asserts the full telemetry round trip:

* broker-side counters (frames, leases, results, auth failures) and
  the lease-to-publish histogram show the traffic that actually
  happened;
* the worker's registry snapshot piggybacked on heartbeat frames
  comes back as ``worker``-labeled series, and the broker-stamped
  round-trip gauge is present and sane;
* span records stitch one spec's lease -> execute -> publish into a
  single trace id across the broker and worker roles.
"""

import json
import threading
import time
import urllib.request

import pytest

import repro.telemetry as tm
from repro.runner import (
    Broker,
    GridClient,
    ResultCache,
    census_job,
    run_worker,
)
from repro.runner.remote import ProtocolError
from repro.telemetry.server import MetricsServer
from repro.telemetry.top import (
    metric_total,
    parse_prometheus,
    render_screen,
)

SIZE = "tiny"
TOKEN = "scrape-me-if-you-can"


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return (
            resp.status,
            resp.headers.get("Content-Type", ""),
            resp.read().decode("utf-8"),
        )


def _wait(predicate, timeout: float = 60.0, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(autouse=True)
def _span_sink(tmp_path):
    tm.configure(tmp_path / "telemetry")
    yield
    tm.shutdown()


class TestLiveScrape:
    def test_tokened_broker_scrapes_end_to_end(self, tmp_path):
        grid = [census_job("em3d", SIZE), census_job("tomcatv", SIZE)]
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(
            cache=cache,
            lease_ttl=0.4,  # beats every ~0.1s -> rtt shows up fast
            poll=0.02,
            auth_token=TOKEN,
        )
        address = broker.start()
        server = MetricsServer(
            metrics_fn=broker.render_metrics,
            health_fn=broker.health,
            port=0,
        )
        mhost, mport = server.start()
        base = f"http://{mhost}:{mport}"
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                address=address,
                batch=1,
                name="scrape-w",
                auth_token=TOKEN,
            ),
            daemon=True,
        )
        worker.start()
        try:
            # an impostor with the wrong token is refused at hello
            # and counted
            with pytest.raises(ProtocolError):
                run_worker(
                    address=address, name="impostor",
                    auth_token="wrong-token",
                )

            with GridClient(address, auth_token=TOKEN) as client:
                client.submit(grid)
                results = dict(client.stream(timeout=240))
            assert len(results) == len(grid)

            def settled():
                _, _, body = _get(base, "/healthz")
                doc = json.loads(body)
                info = doc.get("workers", {}).get("scrape-w")
                return (
                    info is not None
                    and info.get("rtt_s") is not None
                    and doc.get("queue_depth") == 0
                )

            assert _wait(settled), "worker rtt never reached /healthz"

            # -- /healthz ------------------------------------------
            status, ctype, body = _get(base, "/healthz")
            assert status == 200
            assert "json" in ctype
            doc = json.loads(body)
            assert doc["closing"] is False
            assert doc["queue_depth"] == 0
            assert doc["grids_pending"] == {}
            assert doc["stats"]["results"] >= len(grid)
            assert doc["stats"]["auth_failures"] >= 1
            info = doc["workers"]["scrape-w"]
            assert info["live"] is True
            assert 0 < info["rtt_s"] < 5.0

            # -- /metrics ------------------------------------------
            status, ctype, text = _get(base, "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain; version=0.0.4")
            samples = parse_prometheus(text)
            assert metric_total(
                samples, "repro_broker_frames_total"
            ) > 0
            assert metric_total(
                samples, "repro_broker_leases_total",
                worker="scrape-w",
            ) >= len(grid)
            assert metric_total(
                samples, "repro_broker_results_total", outcome="first"
            ) >= len(grid)
            assert metric_total(
                samples, "repro_broker_auth_failures_total"
            ) >= 1
            assert metric_total(
                samples, "repro_broker_lease_to_publish_seconds_count"
            ) >= len(grid)
            # the broker-stamped per-worker round-trip gauge (the
            # process-global registry may hold series from earlier
            # tests' workers — select ours)
            (rtt_value,) = [
                value
                for labels, value in samples[
                    "repro_broker_heartbeat_rtt_seconds"
                ]
                if dict(labels).get("worker") == "scrape-w"
            ]
            assert 0 < rtt_value < 5.0
            # worker-registry series shipped inside heartbeat frames
            # come back labeled with the worker's name
            assert metric_total(
                samples, "repro_worker_executed_total",
                worker="scrape-w", outcome="ok",
            ) >= len(grid)

            # the top renderer accepts the real documents
            frame = render_screen(doc, samples)
            assert "scrape-w" in frame

            # -- unknown paths -------------------------------------
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, "/nope")
            assert err.value.code == 404

            # -- shutdown is observable ----------------------------
            broker.begin_shutdown()
            assert _wait(
                lambda: json.loads(_get(base, "/healthz")[2])[
                    "closing"
                ]
            )
        finally:
            broker.begin_shutdown()
            worker.join(timeout=30)
            server.stop()
            broker.stop()
        assert not worker.is_alive()

    def test_heartbeat_times_each_execution_once(
        self, tmp_path, worker_thread
    ):
        """A worker's heartbeat snapshot carries each execution's time
        once, as the runner's series, with no worker-named copy of the
        same observation."""
        grid = [census_job("em3d", SIZE)]
        broker = Broker(
            cache=ResultCache(tmp_path / "cache"),
            lease_ttl=0.4,  # beats every ~0.1s
            poll=0.02,
        )
        executed = tm.registry().counter("repro_worker_executed_total")
        before = executed.value(outcome="ok")
        gid = broker.submit(grid)
        broker.start()
        try:
            with worker_thread(broker, name="timer"):
                assert len(list(broker.stream(gid, timeout=240))) == 1

                def shipped():
                    counters = broker.worker_snapshots().get(
                        "timer", {}
                    ).get("counters", {})
                    return counters.get(
                        "repro_worker_executed_total", {}
                    ).get("outcome=ok", 0) > before

                # a beat sent after the worker counted the spec, so
                # after every observation of its execution
                assert _wait(shipped), "no heartbeat after execution"
                snapshot = broker.worker_snapshots()["timer"]
        finally:
            broker.stop()
        assert "repro_runner_execute_seconds" in snapshot["histograms"]
        assert "repro_worker_execute_seconds" not in snapshot["histograms"]

    def test_spans_stitch_lease_execute_publish(
        self, tmp_path, worker_thread
    ):
        grid = [census_job("em3d", SIZE)]
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(cache=cache, poll=0.02)
        gid = broker.submit(grid)
        broker.start()
        try:
            with worker_thread(broker, name="tracer"):
                streamed = list(broker.stream(gid, timeout=240))
        finally:
            broker.stop()
        assert len(streamed) == len(grid)
        spans = list(tm.read_spans(tm.configured_dir()))
        by_trace = {}
        for record in spans:
            by_trace.setdefault(record["trace"], set()).add(
                record["name"]
            )
        # at least one trace contains both roles' spans: the id the
        # broker minted at lease time came back around the wire
        assert any(
            {"worker.execute", "broker.publish"} <= names
            for names in by_trace.values()
        ), f"no stitched trace in {by_trace}"
