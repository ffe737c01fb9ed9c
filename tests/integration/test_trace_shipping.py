"""Integration tests for broker-built trace distribution.

The contract under test: with ``ship_traces`` on, (1) a wire-shipped
trace is event-for-event identical to a locally built one, (2) a
2-worker remote fleet performs exactly one trace build fleet-wide per
unique workload fingerprint — on the broker — with reports
byte-identical to a serial run (the PR's acceptance criterion), and
(3) corrupted / truncated / digest-mismatched / misaddressed blobs
are rejected worker-side and fall back to a local build without
failing the spec.
"""

import dataclasses
import hashlib
import os
import pickle
import socket

import pytest

from repro.codecs import pack
from repro.runner import (
    Broker,
    PolicySpec,
    RemoteBackend,
    ResultCache,
    Runner,
    census_job,
    timing_job,
)
from repro.runner import runner as runner_module
from repro.runner.remote import _request, _verify_trace_blob
from repro.workloads import (
    TraceCache,
    Workload,
    get_workload,
    trace_key,
)

SIZE = "tiny"


def _grid():
    # four specs over two unique workload fingerprints
    return [
        census_job("em3d", SIZE),
        census_job("tomcatv", SIZE),
        timing_job("em3d", SIZE, PolicySpec(name="base")),
        timing_job("em3d", SIZE, PolicySpec(name="ltp")),
    ]


def _digests(results):
    return {
        spec.canonical(): hashlib.sha256(pickle.dumps(value)).hexdigest()
        for spec, value in results.items()
    }


def assert_event_identical(a, b):
    """Event-for-event structural equality of two ProgramSets."""
    assert a.name == b.name
    assert a.num_nodes == b.num_nodes
    assert sorted(a.programs) == sorted(b.programs)
    for node in a.programs:
        steps_a = a.programs[node].steps
        steps_b = b.programs[node].steps
        assert len(steps_a) == len(steps_b), f"node {node} length"
        for i, (sa, sb) in enumerate(zip(steps_a, steps_b)):
            assert type(sa) is type(sb), f"node {node} step {i}"
            for field in dataclasses.fields(sa):
                assert getattr(sa, field.name) == getattr(
                    sb, field.name
                ), f"node {node} step {i} field {field.name}"


@pytest.fixture
def fresh_memo():
    """Start from an empty per-process ProgramSet memo so forked
    workers cannot inherit pre-built traces from earlier tests."""
    runner_module._PROGRAMS.clear()
    yield
    runner_module._PROGRAMS.clear()


@pytest.fixture(scope="module")
def serial_golden():
    return _digests(Runner().run(_grid()))


class TestShippedTraceGolden:
    def test_wire_blob_equals_local_build(self, tmp_path):
        """Fetch a trace over the raw protocol and compare it
        event-for-event against a fresh local build."""
        spec = census_job("em3d", SIZE)
        broker = Broker(ship_traces=True, codec="zlib")
        broker.submit([spec])
        address = broker.start()
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        try:
            welcome = _request(stream, {"type": "hello", "worker": "w"})
            assert welcome["ship_traces"] is True
            assert welcome["codec"] == "zlib"

            reply = _request(
                stream, {"type": "lease", "worker": "w", "max": 1}
            )
            workload = get_workload("em3d", SIZE)
            assert reply["trace_offers"] == [trace_key(workload)]

            fetched = _request(stream, {
                "type": "trace-fetch", "worker": "w",
                "key": trace_key(workload),
            })
            programs = _verify_trace_blob(trace_key(workload), fetched)
            assert programs is not None
            local = workload.build()
            assert_event_identical(programs, local)
            # the shipped blob really is the compressed form
            raw = pickle.dumps(local, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(fetched["blob"]) < len(raw)
            assert broker.stats.trace_builds == 1
            assert broker.stats.trace_fetches == 1
        finally:
            sock.close()
            broker.stop()

    def test_unknown_key_answers_no_blob(self, tmp_path):
        broker = Broker(ship_traces=True, codec="zlib")
        broker.submit([census_job("em3d", SIZE)])
        address = broker.start()
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        try:
            reply = _request(stream, {
                "type": "trace-fetch", "worker": "w", "key": "f" * 64,
            })
            assert reply["type"] == "trace"
            assert reply["blob"] is None
            assert _verify_trace_blob("f" * 64, reply) is None
        finally:
            sock.close()
            broker.stop()

    def test_shipping_off_offers_nothing(self, tmp_path):
        broker = Broker()
        broker.submit([census_job("em3d", SIZE)])
        address = broker.start()
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        try:
            welcome = _request(stream, {"type": "hello", "worker": "w"})
            assert welcome["ship_traces"] is False
            reply = _request(
                stream, {"type": "lease", "worker": "w", "max": 1}
            )
            assert "trace_offers" not in reply
        finally:
            sock.close()
            broker.stop()


class TestBlobVerification:
    """Worker-side rejection: every tampered reply must come back as
    None (-> local-build fallback), never raise."""

    def _good_reply(self):
        workload = get_workload("em3d", SIZE)
        raw = pickle.dumps(
            workload.build(), protocol=pickle.HIGHEST_PROTOCOL
        )
        key = trace_key(workload)
        return key, {
            "type": "trace",
            "key": key,
            "blob": pack(raw, "zlib"),
            "digest": hashlib.sha256(raw).hexdigest(),
            "codec": "zlib",
        }

    def test_good_blob_verifies(self):
        key, reply = self._good_reply()
        assert _verify_trace_blob(key, reply) is not None

    def test_truncated_blob_rejected(self):
        key, reply = self._good_reply()
        reply["blob"] = reply["blob"][: len(reply["blob"]) // 2]
        assert _verify_trace_blob(key, reply) is None

    def test_corrupted_blob_rejected(self):
        key, reply = self._good_reply()
        reply["blob"] = reply["blob"][:-16] + b"\x00" * 16
        assert _verify_trace_blob(key, reply) is None

    def test_digest_mismatch_rejected(self):
        key, reply = self._good_reply()
        reply["digest"] = "0" * 64
        assert _verify_trace_blob(key, reply) is None

    def test_misaddressed_key_rejected(self):
        key, reply = self._good_reply()
        reply["key"] = "a" * 64
        assert _verify_trace_blob(key, reply) is None

    def test_non_programset_payload_rejected(self):
        key, reply = self._good_reply()
        raw = pickle.dumps({"not": "a ProgramSet"})
        reply["blob"] = pack(raw, "zlib")
        reply["digest"] = hashlib.sha256(raw).hexdigest()
        assert _verify_trace_blob(key, reply) is None

    def test_unknown_codec_blob_rejected(self):
        key, reply = self._good_reply()
        reply["blob"] = b"LTPZ" + bytes([3]) + b"lz9" + b"payload"
        assert _verify_trace_blob(key, reply) is None

    def test_missing_blob_rejected(self):
        key, reply = self._good_reply()
        reply["blob"] = None
        assert _verify_trace_blob(key, reply) is None


class TestFleetExactlyOnceBuild:
    def test_two_worker_fleet_builds_each_trace_once(
        self, tmp_path, serial_golden, fresh_memo, monkeypatch
    ):
        """The acceptance criterion: a 2-worker remote run with trace
        shipping performs exactly one trace build fleet-wide per
        unique workload fingerprint — on the broker — and reports
        stay byte-identical to serial."""
        grid = _grid()
        unique_traces = {
            trace_key(get_workload(s.workload, s.size))
            for s in grid
        }
        build_log = tmp_path / "builds.log"
        original = Workload.build

        def counted(self):
            with open(build_log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(self)

        # forked workers inherit the instrumented class
        monkeypatch.setattr(Workload, "build", counted)

        backend = RemoteBackend(
            workers=2, lease_ttl=20.0, poll=0.02, timeout=240,
            ship_traces=True, codec="zlib",
        )
        runner = Runner(
            cache=ResultCache(tmp_path / "cache", codec="zlib"),
            backend=backend,
        )
        results = runner.run(grid)
        assert _digests(results) == serial_golden

        pids = build_log.read_text().split()
        assert len(pids) == len(unique_traces), (
            f"expected exactly {len(unique_traces)} fleet-wide builds,"
            f" saw {len(pids)}"
        )
        assert set(pids) == {str(os.getpid())}, (
            "every build must happen broker-side"
        )
        stats = backend.broker.stats
        assert stats.trace_builds == len(unique_traces)
        assert stats.trace_fetches >= len(unique_traces)
        assert stats.results == len(grid)
        assert len(stats.workers) == 2

    @pytest.mark.parametrize(
        "grid",
        [_grid(), _grid()[2:]],
        ids=["two-fingerprints", "one-fingerprint"],
    )
    def test_single_worker_accounting_in_process(
        self, tmp_path, serial_golden, fresh_memo, worker_thread, grid
    ):
        """run_worker against an in-process broker: fetch accounting
        lands in WorkerStats (one fetch per unique fingerprint, however
        many specs share it) and the local trace cache persists the
        shipped blobs."""
        names = sorted({spec.workload for spec in grid})
        broker = Broker(
            cache=ResultCache(tmp_path / "cache"),
            lease_ttl=20.0, poll=0.02,
            ship_traces=True, codec="zlib",
        )
        gid = broker.submit(grid)
        broker.start()
        try:
            with worker_thread(
                broker, batch=2, name="w",
                trace_root=str(tmp_path / "worker-traces"),
            ) as worker:
                results = dict(broker.stream(gid, timeout=120))
        finally:
            broker.stop()
        stats = worker["stats"]
        assert stats.executed == len(grid)
        assert stats.traces_fetched == len(names)
        assert stats.trace_fallbacks == 0
        assert stats.trace_bytes > 0
        # shipped blobs were persisted into the worker's trace cache
        local = TraceCache(tmp_path / "worker-traces")
        for name in names:
            hit, programs = local.get(get_workload(name, SIZE))
            assert hit
            assert_event_identical(
                programs, get_workload(name, SIZE).build()
            )
        assert _digests(results) == {
            spec.canonical(): serial_golden[spec.canonical()]
            for spec in grid
        }

    def test_no_fetch_traces_builds_locally(
        self, tmp_path, fresh_memo, worker_thread
    ):
        """fetch_traces=False ignores the broker's offers entirely."""
        spec = census_job("em3d", SIZE)
        broker = Broker(
            lease_ttl=20.0, poll=0.02, ship_traces=True, codec="zlib"
        )
        gid = broker.submit([spec])
        broker.start()
        try:
            with worker_thread(
                broker, name="w", fetch_traces=False
            ) as worker:
                list(broker.stream(gid, timeout=120))
        finally:
            broker.stop()
        stats = worker["stats"]
        assert stats.executed == 1
        assert stats.traces_fetched == 0
        assert broker.stats.trace_fetches == 0


class TestCorruptBlobFallback:
    def test_fleet_survives_corrupt_blobs(
        self, tmp_path, serial_golden, fresh_memo, monkeypatch
    ):
        """A broker that ships garbage blobs must not fail any spec:
        workers fall back to local builds and the grid still resolves
        byte-identically."""
        def corrupt(self, key):
            return {
                "type": "trace",
                "key": key,
                "blob": b"LTPZ" + bytes([4]) + b"zlib" + b"garbage",
                "digest": "0" * 64,
                "codec": "zlib",
            }

        monkeypatch.setattr(Broker, "_handle_trace_fetch", corrupt)
        backend = RemoteBackend(
            workers=2, lease_ttl=20.0, poll=0.02, timeout=240,
            ship_traces=True, codec="zlib",
        )
        runner = Runner(
            cache=ResultCache(tmp_path, codec="zlib"), backend=backend,
        )
        results = runner.run(_grid())
        assert _digests(results) == serial_golden
        stats = backend.broker.stats
        assert stats.results == len(_grid())
        assert stats.errors == 0


class TestBrokerServingPolicy:
    def test_oversized_blob_refused_not_shipped(
        self, tmp_path, fresh_memo, monkeypatch, worker_thread
    ):
        """A trace too big for the wire answers blob None (the worker
        builds locally) instead of an oversized frame that would tear
        down the worker connection."""
        from repro.runner import remote as remote_mod

        monkeypatch.setattr(remote_mod, "_TRACE_BUDGET", 16)
        spec = census_job("em3d", SIZE)
        broker = Broker(
            lease_ttl=20.0, poll=0.02, ship_traces=True, codec="zlib"
        )
        gid = broker.submit([spec])
        broker.start()
        try:
            with worker_thread(broker, name="w") as worker:
                list(broker.stream(gid, timeout=120))
        finally:
            broker.stop()
        stats = worker["stats"]
        assert stats.executed == 1  # fallback build, spec still done
        assert stats.traces_fetched == 0
        assert stats.trace_fallbacks == 1
        assert broker.stats.trace_bytes == 0

    def test_warm_broker_cache_serves_file_bytes_without_build(
        self, tmp_path, fresh_memo
    ):
        """When the broker's trace cache already holds the blob in
        the wire codec, fetches ship the stored file bytes as-is —
        zero builds, zero re-packing."""
        workload = get_workload("em3d", SIZE)
        warm = TraceCache(tmp_path / "traces", codec="zlib")
        warm.put(workload, workload.build())
        stored = warm.load_blob(workload)

        spec = census_job("em3d", SIZE)
        broker = Broker(
            lease_ttl=20.0, poll=0.02,
            ship_traces=True, codec="zlib",
            trace_cache=TraceCache(tmp_path / "traces", codec="zlib"),
        )
        broker.submit([spec])
        address = broker.start()
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        try:
            reply = _request(stream, {
                "type": "trace-fetch", "worker": "w",
                "key": trace_key(workload),
            })
            assert reply["blob"] == stored  # the file bytes verbatim
            assert _verify_trace_blob(
                trace_key(workload), reply
            ) is not None
            assert broker.stats.trace_builds == 0
            # nothing memoized in RAM: the file serves later fetches
            assert broker._trace_blobs == {}
        finally:
            sock.close()
            broker.stop()

    def test_torn_cache_file_header_degrades_to_rebuild(
        self, tmp_path, fresh_memo
    ):
        """A broker trace-cache entry truncated inside its LTPZ
        header must not poison trace-fetch for that key forever — the
        fetch falls through to cached_build, which repairs the entry,
        and the blob ships."""
        workload = get_workload("em3d", SIZE)
        cache = TraceCache(tmp_path / "traces", codec="zlib")
        path = cache.path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"LTPZ\x04zl")  # torn mid-header

        spec = census_job("em3d", SIZE)
        broker = Broker(
            lease_ttl=20.0, poll=0.02,
            ship_traces=True, codec="zlib",
            trace_cache=cache,
        )
        broker.submit([spec])
        address = broker.start()
        sock = socket.create_connection(address)
        stream = sock.makefile("rwb")
        try:
            reply = _request(stream, {
                "type": "trace-fetch", "worker": "w",
                "key": trace_key(workload),
            })
            assert reply["type"] == "trace"
            assert _verify_trace_blob(
                trace_key(workload), reply
            ) is not None
            assert broker.stats.trace_builds == 1  # repaired via build
        finally:
            sock.close()
            broker.stop()
        # and the on-disk entry is healthy again
        hit, _ = TraceCache(tmp_path / "traces").get(workload)
        assert hit
