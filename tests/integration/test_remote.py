"""Failure-injection and integration tests for the remote backend.

The headline scenarios from the lease protocol's failure model:

* a worker that leases specs and dies without reporting (simulated by
  a raw protocol client that disconnects mid-lease) must not lose its
  specs — the lease expires and a healthy worker picks them up, with
  no duplicated publications;
* a broker that disappears and is restarted resumes from the result
  cache, re-serving only the unfinished part of the grid;
* a spec that raises on a worker is retried up to ``max_attempts``
  and then surfaced as ``RemoteExecutionError`` carrying the remote
  traceback.

Plus the end-to-end CLI path: ``ltp-repro worker --connect`` run as a
real subprocess against an in-test broker.
"""

import hashlib
import multiprocessing
import pickle
import socket
import threading
import time

import pytest

from repro.experiments.cli import build_parser, main, _runner_from_args
from repro.runner import (
    Broker,
    PolicySpec,
    RemoteBackend,
    RemoteExecutionError,
    ResultCache,
    Runner,
    census_job,
    run_worker,
    timing_job,
)
from repro.runner.remote import _request, encode_frame, read_frame

SIZE = "tiny"


def _grid():
    return [
        timing_job("em3d", SIZE, PolicySpec(name=p))
        for p in ("base", "dsi", "ltp")
    ] + [
        census_job("em3d", SIZE),
        census_job("tomcatv", SIZE),
    ]


def _digest(value) -> str:
    return hashlib.sha256(pickle.dumps(value)).hexdigest()


@pytest.fixture(scope="module")
def serial_golden():
    results = Runner().run(_grid())
    return {
        spec.canonical(): _digest(value)
        for spec, value in results.items()
    }


class _DoomedWorker:
    """A raw protocol client that leases specs and then 'crashes':
    the connection drops with leases outstanding and no results."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.stream = self.sock.makefile("rwb")

    def hello_and_lease(self, n: int):
        _request(self.stream, {"type": "hello", "worker": "doomed"})
        reply = _request(
            self.stream, {"type": "lease", "worker": "doomed", "max": n}
        )
        return [key for key, _ in reply["leases"]]

    def crash(self):
        # no bye, no results: exactly what SIGKILL looks like to the
        # broker — silence until the lease ttl runs out
        self.sock.close()


class TestWorkerDeath:
    def test_dead_workers_leases_are_reclaimed_and_rerun(
        self, tmp_path, serial_golden
    ):
        grid = _grid()
        cache = ResultCache(tmp_path)
        broker = Broker(
            grid, cache=cache, lease_ttl=1.0, poll=0.05
        )
        address = broker.start()

        doomed = _DoomedWorker(address)
        taken = doomed.hello_and_lease(2)
        assert len(taken) == 2
        doomed.crash()

        # a healthy worker drains the rest, then inherits the dead
        # worker's specs once their leases expire
        healthy = threading.Thread(
            target=run_worker,
            kwargs=dict(address=address, batch=1, name="healthy"),
            daemon=True,
        )
        healthy.start()
        try:
            streamed = list(broker.stream(timeout=120))
        finally:
            healthy.join(timeout=30)
            broker.stop()

        # nothing lost: the whole grid resolved, byte-identical
        assert len(streamed) == len(grid)
        assert {
            spec.canonical(): _digest(value)
            for spec, value in streamed
        } == serial_golden
        # nothing duplicated: each spec published exactly once, and
        # the dead worker's leases really were reassigned
        assert broker.stats.results == len(grid)
        assert broker.stats.duplicates == 0
        assert broker.table.reclaimed == len(taken)
        assert broker.stats.leases == len(grid) + len(taken)

    def test_slow_worker_duplicate_result_is_dropped(self, tmp_path):
        """A worker that lost its lease to reassignment but still
        reports gets acknowledged, not double-published."""
        spec = census_job("em3d", SIZE)
        cache = ResultCache(tmp_path)
        broker = Broker([spec], cache=cache, lease_ttl=30.0)
        address = broker.start()
        try:
            slow = _DoomedWorker(address)
            [key] = slow.hello_and_lease(1)
            value = Runner().run_one(spec)
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            first = _request(slow.stream, {
                "type": "result", "worker": "doomed",
                "key": key, "report": data,
            })
            dup = _request(slow.stream, {
                "type": "result", "worker": "doomed",
                "key": key, "report": data,
            })
            slow.crash()
            assert first == {"type": "ok", "duplicate": False}
            assert dup == {"type": "ok", "duplicate": True}
            assert broker.stats.results == 1
            assert broker.stats.duplicates == 1
        finally:
            broker.stop()


class TestBrokerRestart:
    def test_restarted_broker_resumes_from_result_cache(
        self, tmp_path, serial_golden
    ):
        grid = _grid()
        half = grid[:2]

        # first broker resolves part of the grid, then "dies"
        first = Runner(
            cache=ResultCache(tmp_path),
            backend=RemoteBackend(
                workers=1, lease_ttl=20.0, poll=0.02, timeout=240
            ),
        )
        first.run(half)
        assert first.stats.executed == len(half)

        # the restarted broker serves only the remainder remotely
        second = Runner(
            cache=ResultCache(tmp_path),
            backend=RemoteBackend(
                workers=2, lease_ttl=20.0, poll=0.02, timeout=240
            ),
        )
        results = second.run(grid)
        assert second.stats.cache_hits == len(half)
        assert second.stats.executed == len(grid) - len(half)
        assert {
            spec.canonical(): _digest(value)
            for spec, value in results.items()
        } == serial_golden


class TestRemoteFailures:
    def test_failing_spec_surfaces_remote_traceback(self, tmp_path):
        bad = census_job("em3d", SIZE, overrides={"num_nodes": 1})
        backend = RemoteBackend(
            workers=1, lease_ttl=20.0, poll=0.02,
            max_attempts=2, timeout=120,
        )
        runner = Runner(cache=ResultCache(tmp_path), backend=backend)
        with pytest.raises(RemoteExecutionError):
            runner.run([bad])
        assert backend.broker.stats.errors == 2

    def test_oversized_report_fails_spec_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        """A report too big for the wire must surface as a failed
        attempt (and eventually RemoteExecutionError), not tear down
        the connection and cycle lease->expire->reassign forever."""
        from repro.runner import remote as remote_mod

        spec = census_job("em3d", SIZE)
        broker = Broker(
            [spec], cache=ResultCache(tmp_path),
            lease_ttl=20.0, poll=0.02, max_attempts=2,
        )
        address = broker.start()
        # shrink the wire budget so any real report exceeds it
        monkeypatch.setattr(remote_mod, "_REPORT_BUDGET", 16)
        try:
            stats = run_worker(address=address, name="w")
            assert stats.executed == 0
            assert stats.failed == 2  # retried, then gave up
            with pytest.raises(RemoteExecutionError, match="exceeds"):
                list(broker.stream(timeout=30))
        finally:
            broker.stop()

    def test_expired_leases_are_reclaimed_by_the_next_lease(
        self, tmp_path
    ):
        """A lease call reclaims every expired lease, regrants what it
        can, and leaves the rest pending for the next caller."""
        from repro.runner.remote import LEASED, PENDING

        cache = ResultCache(tmp_path)
        specs = [census_job("em3d", SIZE), census_job("tomcatv", SIZE)]
        broker = Broker(specs, cache=cache, lease_ttl=0.5, poll=0.05)
        address = broker.start()
        try:
            first = _DoomedWorker(address)
            taken = first.hello_and_lease(2)
            assert len(taken) == 2
            first.crash()
            time.sleep(0.7)  # both leases expire
            second = _DoomedWorker(address)
            regranted = second.hello_and_lease(1)
            assert len(regranted) == 1
            second.crash()
            assert broker.table.reclaimed == 2
            states = broker.table.states()
            assert states[regranted[0]] == LEASED
            assert broker.table.owner_of(regranted[0]) == "doomed"
            (left,) = set(taken) - set(regranted)
            assert states[left] == PENDING
        finally:
            broker.stop()

    def test_all_workers_dead_raises_instead_of_hanging(self, tmp_path):
        class _Corpse:
            def is_alive(self):
                return False

        # short lease ttl so the fleet counts as silent quickly
        # (the silence window is ttl / 2)
        broker = Broker(
            _grid(), cache=ResultCache(tmp_path), lease_ttl=2.0
        )
        broker.start()
        try:
            with pytest.raises(RemoteExecutionError, match="silent"):
                list(broker.stream(timeout=60, workers=[_Corpse()]))
        finally:
            broker.stop()

    def test_stale_error_does_not_revoke_reassigned_lease(self):
        """An error reported by a worker whose lease already expired
        and moved to a peer must neither revoke the live lease nor
        burn an attempt (mirrors heartbeat/release owner checks)."""
        from repro.runner.remote import LEASED, LeaseTable

        now = [1000.0]
        table = LeaseTable(
            ["k"], ttl=10.0, clock=lambda: now[0], max_attempts=2
        )
        assert table.lease("A", 1) == ["k"]
        now[0] += 11.0
        assert table.lease("B", 1) == ["k"]  # reassigned after expiry
        assert table.fail("k", "A", "stale boom") is False
        assert table.states()["k"] == LEASED
        assert table.owner_of("k") == "B"
        # B's own failures still count, and only they reach the cap
        assert table.fail("k", "B", "boom 1") is False
        assert table.lease("B", 1) == ["k"]
        assert table.fail("k", "B", "boom 2") is True


def _worker_cli(address, out_path):
    code = main([
        "worker",
        "--connect", f"{address[0]}:{address[1]}",
        "--batch", "2",
        "--name", "cli-worker",
    ])
    with open(out_path, "w") as handle:
        handle.write(str(code))


class TestWorkerCli:
    def test_cli_worker_subprocess_resolves_grid(
        self, tmp_path, serial_golden
    ):
        grid = _grid()
        broker = Broker(
            grid, cache=ResultCache(tmp_path / "cache"), poll=0.05
        )
        address = broker.start()
        out = tmp_path / "exit-code"
        proc = multiprocessing.get_context("fork").Process(
            target=_worker_cli, args=(address, str(out))
        )
        proc.start()
        try:
            streamed = dict(
                (spec.canonical(), _digest(value))
                for spec, value in broker.stream(timeout=120)
            )
        finally:
            proc.join(timeout=60)
            broker.stop()
        assert proc.exitcode == 0
        assert out.read_text() == "0"
        assert streamed == serial_golden
        assert broker.stats.workers == {"cli-worker"}

    def test_failed_connect_restores_trace_cache_global(
        self, tmp_path
    ):
        """run_worker must undo its process-global trace-cache swap
        even when the broker is unreachable (in-process callers would
        otherwise silently keep the worker's cache installed)."""
        from repro.runner import runner as runner_module

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        before = runner_module._TRACE_CACHE
        with pytest.raises(OSError):
            run_worker(
                address=("127.0.0.1", port),
                trace_root=str(tmp_path / "traces"),
            )
        assert runner_module._TRACE_CACHE is before

    def test_worker_against_no_broker_fails_cleanly(self, capsys):
        # grab a port that is certainly closed
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["worker", "--connect", f"127.0.0.1:{port}"])
        assert code == 1
        assert "lost broker" in capsys.readouterr().err


class TestCliPlumbing:
    def test_remote_flags_build_a_remote_backend(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--backend", "remote",
            "--listen", "127.0.0.1:7465",
            "--remote-workers", "3", "--lease-ttl", "5",
            "--cache-dir", str(tmp_path),
        ])
        runner = _runner_from_args(args)
        backend = runner.backend
        assert backend.name == "remote"
        assert backend.listen == ("127.0.0.1", 7465)
        assert backend.workers == 3
        assert backend.lease_ttl == 5.0

    def test_remote_workers_default_to_jobs(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--backend", "remote", "--jobs", "4",
            "--cache-dir", str(tmp_path),
        ])
        assert _runner_from_args(args).backend.workers == 4

    def test_explicit_backend_choices_map(self, tmp_path):
        for choice in ("inline", "pool"):
            args = build_parser().parse_args([
                "run-all", "--backend", choice,
                "--cache-dir", str(tmp_path),
            ])
            assert _runner_from_args(args).backend.name == choice

    def test_listen_parse_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-all", "--listen", "no-port-here"]
            )


class TestBrokerStop:
    def test_stop_cuts_off_connected_workers(self, tmp_path):
        """stop() ends every connection, not only the listener: an
        idle worker polling a persistent broker sees the broker go
        away and exits, and no handler dispatches after stop()."""
        import repro.telemetry as tm
        from repro.runner.remote import ProtocolError

        broker = Broker(
            (), cache=ResultCache(tmp_path / "cache"), persistent=True,
            poll=0.02,
        )
        address = broker.start()
        lost = []

        def work():
            try:
                run_worker(address=address, name="idle")
            except (OSError, ProtocolError) as exc:
                lost.append(exc)

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        try:
            deadline = time.monotonic() + 30
            while (
                "idle" not in broker.stats.workers
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert "idle" in broker.stats.workers
        finally:
            stopped = time.monotonic()
            broker.stop()
            tm.configure(tmp_path / "after-stop")
            worker.join(timeout=5)
        assert not worker.is_alive()
        assert time.monotonic() - stopped < 5
        assert lost, "the worker never noticed the broker stop"
        leases = [
            record for record in tm.read_spans(tmp_path / "after-stop")
            if record["name"] == "broker.lease"
        ]
        assert leases == []


class TestSilentBroker:
    def test_worker_times_out_instead_of_hanging(self, monkeypatch):
        """A broker that welcomes a worker and then stops answering (a
        hung process, a half-open TCP connection) must not hang it:
        both worker connections are bounded by REQUEST_TIMEOUT, so
        run_worker raises OSError and its heartbeat thread exits."""
        from repro.runner import remote as remote_mod

        monkeypatch.setattr(remote_mod, "REQUEST_TIMEOUT", 0.2)
        server = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def silent_broker():
            # the first connection is the worker's main one: answer its
            # hello, then nothing. The heartbeat connection waits in the
            # listen backlog, so its beats go unanswered too.
            conn, _ = server.accept()
            with conn, conn.makefile("rwb") as stream:
                read_frame(stream)
                stream.write(encode_frame(
                    {"type": "welcome", "lease_ttl": 0.2}
                ))
                stream.flush()
                done.wait(timeout=30)

        broker = threading.Thread(target=silent_broker, daemon=True)
        broker.start()
        try:
            started = time.monotonic()
            with pytest.raises(OSError):
                run_worker(address=server.getsockname(), name="w")
            assert time.monotonic() - started < 4
            # run_worker joined its heartbeat thread before raising; a
            # heartbeat still blocked on its reply would be alive here
            assert not [
                t for t in threading.enumerate()
                if t.name == "worker-heartbeat"
            ]
        finally:
            done.set()
            server.close()
            broker.join(timeout=5)
        assert not broker.is_alive()


class TestFrameOverTcp:
    def test_oversized_frame_is_rejected_not_buffered(self):
        """A lying length header must raise, not allocate the cap."""
        import io as _io

        from repro.runner import remote as remote_mod

        frame = bytearray(encode_frame({"type": "hello"}))
        # rewrite the length field to something absurd
        import struct

        frame[5:9] = struct.pack("!I", remote_mod.MAX_FRAME + 1)
        with pytest.raises(remote_mod.ProtocolError):
            read_frame(_io.BytesIO(bytes(frame)))
