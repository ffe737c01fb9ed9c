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
from repro.runner import remote as remote_module
from repro.runner import runner as runner_module
from repro.runner.remote import _request, encode_frame, read_frame
from repro.workloads import (
    TraceCache,
    Workload,
    cached_build,
    get_workload,
    trace_key,
)

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
        broker = Broker(cache=cache, lease_ttl=1.0, poll=0.05)
        gid = broker.submit(grid)
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
            streamed = list(broker.stream(gid, timeout=120))
        finally:
            broker.begin_shutdown()
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
        broker = Broker(cache=cache, lease_ttl=30.0)
        broker.submit([spec])
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
        self, tmp_path, monkeypatch, worker_thread
    ):
        """A report too big for the wire must surface as a failed
        attempt (and eventually RemoteExecutionError), not tear down
        the connection and cycle lease->expire->reassign forever."""
        from repro.runner import remote as remote_mod

        spec = census_job("em3d", SIZE)
        broker = Broker(
            cache=ResultCache(tmp_path),
            lease_ttl=20.0, poll=0.02, max_attempts=2,
        )
        gid = broker.submit([spec])
        broker.start()
        # shrink the wire budget so any real report exceeds it
        monkeypatch.setattr(remote_mod, "_REPORT_BUDGET", 16)
        try:
            with worker_thread(broker, name="w") as worker:
                with pytest.raises(
                    RemoteExecutionError, match="exceeds"
                ):
                    list(broker.stream(gid, timeout=30))
        finally:
            broker.stop()
        assert worker["stats"].executed == 0
        assert worker["stats"].failed == 2  # retried, then gave up

    def test_failed_cache_write_fails_spec_instead_of_hanging(
        self, tmp_path, worker_thread
    ):
        """A result the broker cannot publish (a full or read-only
        cache disk) fails its spec in every waiting grid at once,
        instead of leaving the grid waiting on a key already marked
        done; the worker counts the refused result as failed."""

        class FullDiskCache(ResultCache):
            def put(self, spec, value, holder=None):
                raise OSError(28, "No space left on device")

        def counts():
            return (
                remote_module._M_RESULTS.value(outcome="first"),
                remote_module._M_RESULTS.value(outcome="error"),
                remote_module._M_RESULT_BYTES.value(),
                remote_module._M_LEASE_TO_PUBLISH.collect()
                .get("", {}).get("count", 0),
            )

        spec = census_job("em3d", SIZE)
        broker = Broker(
            cache=FullDiskCache(tmp_path), lease_ttl=20.0, poll=0.02
        )
        gid = broker.submit([spec])
        before = counts()
        broker.start()
        try:
            with worker_thread(broker, name="w") as worker:
                with pytest.raises(
                    RemoteExecutionError, match="OSError.*No space left"
                ):
                    # the timeout is only a safety net
                    list(broker.stream(gid, timeout=30))
        finally:
            broker.stop()
        assert worker["stats"].executed == 0
        assert worker["stats"].failed == 1
        # the refused report counts as an error, never as a result
        assert broker.stats.results == 0
        assert broker.stats.result_bytes == 0
        assert broker.stats.errors == 1
        first, errors, result_bytes, published = before
        assert counts() == (first, errors + 1, result_bytes, published)

    def test_expired_leases_are_reclaimed_by_the_next_lease(
        self, tmp_path
    ):
        """A lease call reclaims every expired lease, regrants what it
        can, and leaves the rest pending for the next caller."""
        from repro.runner.remote import LEASED, PENDING

        cache = ResultCache(tmp_path)
        specs = [census_job("em3d", SIZE), census_job("tomcatv", SIZE)]
        broker = Broker(cache=cache, lease_ttl=0.5, poll=0.05)
        broker.submit(specs)
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
        broker = Broker(cache=ResultCache(tmp_path), lease_ttl=2.0)
        gid = broker.submit(_grid())
        broker.start()
        try:
            with pytest.raises(RemoteExecutionError, match="silent"):
                list(broker.stream(
                    gid, timeout=60, workers=[_Corpse()]
                ))
        finally:
            broker.stop()

    def test_stream_times_out_and_keeps_its_grid_alive(self, tmp_path):
        """Broker.stream raises once its overall timeout passes, and
        each of its wake-ups counts as a poll of the grid, so a grid
        whose reader is waiting is never reaped as idle."""
        broker = Broker(cache=ResultCache(tmp_path), poll=0.02)
        gid = broker.submit([census_job("em3d", SIZE)])
        with pytest.raises(RemoteExecutionError, match="unresolved after"):
            list(broker.stream(gid, timeout=0.5))
        assert broker.reap_grids(max_idle=0.25) == 0

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
        assert table.fail("k", "A") is False
        assert table.states()["k"] == LEASED
        assert table.owner_of("k") == "B"
        # B's own failures still count, and only they reach the cap
        assert table.fail("k", "B") is False
        assert table.lease("B", 1) == ["k"]
        assert table.fail("k", "B") is True


def _worker_cli(address, out_path, *extra):
    code = main([
        "worker",
        "--connect", f"{address[0]}:{address[1]}",
        "--batch", "2",
        "--name", "cli-worker",
        *extra,
    ])
    with open(out_path, "w") as handle:
        handle.write(str(code))


class TestWorkerCli:
    def test_cli_worker_subprocess_resolves_grid(
        self, tmp_path, serial_golden
    ):
        grid = _grid()
        broker = Broker(cache=ResultCache(tmp_path / "cache"), poll=0.05)
        gid = broker.submit(grid)
        address = broker.start()
        out = tmp_path / "exit-code"
        proc = multiprocessing.get_context("fork").Process(
            target=_worker_cli, args=(address, str(out))
        )
        proc.start()
        try:
            streamed = dict(
                (spec.canonical(), _digest(value))
                for spec, value in broker.stream(gid, timeout=120)
            )
        finally:
            broker.begin_shutdown()
            proc.join(timeout=60)
            broker.stop()
        assert proc.exitcode == 0
        assert out.read_text() == "0"
        assert streamed == serial_golden
        assert broker.stats.workers == {"cli-worker"}

    def test_cli_worker_builds_into_its_own_trace_cache(
        self, tmp_path, serial_golden, monkeypatch
    ):
        """An external worker gets no traces from the broker: it
        builds each one into its --trace-cache."""
        # the forked worker inherits this process's memo
        monkeypatch.setattr(runner_module, "_PROGRAMS", {})
        traces = tmp_path / "worker-traces"
        broker = Broker(cache=ResultCache(tmp_path / "cache"), poll=0.05)
        gid = broker.submit(_grid())
        address = broker.start()
        out = tmp_path / "exit-code"
        proc = multiprocessing.get_context("fork").Process(
            target=_worker_cli,
            args=(address, str(out), "--trace-cache", str(traces)),
        )
        proc.start()
        try:
            streamed = {
                spec.canonical(): _digest(value)
                for spec, value in broker.stream(gid, timeout=120)
            }
        finally:
            broker.begin_shutdown()
            proc.join(timeout=60)
            broker.stop()
        assert out.read_text() == "0"
        assert streamed == serial_golden
        entries = list(TraceCache(traces).entry_paths())
        assert sorted(p.stem for p in entries) == sorted(
            {trace_key(get_workload(s.workload, SIZE)) for s in _grid()}
        )

    def test_failed_connect_restores_trace_cache_global(
        self, tmp_path
    ):
        """run_worker must undo its process-global trace-cache swap
        even when the broker is unreachable (in-process callers would
        otherwise silently keep the worker's cache installed)."""
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


class TestWorkerTraceSource:
    def test_warm_worker_builds_nothing(
        self, tmp_path, worker_thread, serial_golden, monkeypatch
    ):
        """Traces never cross the wire: a worker started on a warm
        trace cache reads every trace from it and builds none."""
        traces = TraceCache(tmp_path / "traces")
        for name in {spec.workload for spec in _grid()}:
            cached_build(get_workload(name, SIZE), traces)

        def refuse(self):
            raise AssertionError("a warm worker must not build")

        monkeypatch.setattr(Workload, "build", refuse)
        # the in-thread worker shares this process's memo
        monkeypatch.setattr(runner_module, "_PROGRAMS", {})
        broker = Broker(
            cache=ResultCache(tmp_path / "cache"),
            lease_ttl=20.0, poll=0.02,
        )
        gid = broker.submit(_grid())
        broker.start()
        try:
            with worker_thread(
                broker, batch=2, name="w", trace_root=str(traces.root)
            ) as worker:
                results = dict(broker.stream(gid, timeout=120))
        finally:
            broker.stop()
        assert worker["stats"].executed == len(_grid())
        assert {
            spec.canonical(): _digest(value)
            for spec, value in results.items()
        } == serial_golden

    def _run_counting_builds(self, tmp_path, grid, traces, monkeypatch,
                             worker_thread):
        """Stream ``grid`` through one in-thread worker started on
        ``traces``; returns the results and the workload names the
        worker built, in order."""
        built = []
        original = Workload.build

        def counted(self):
            built.append(self.name)
            return original(self)

        monkeypatch.setattr(Workload, "build", counted)
        # the in-thread worker shares this process's memo
        monkeypatch.setattr(runner_module, "_PROGRAMS", {})
        broker = Broker(
            cache=ResultCache(tmp_path / "cache"),
            lease_ttl=20.0, poll=0.02,
        )
        gid = broker.submit(grid)
        broker.start()
        try:
            with worker_thread(
                broker, batch=2, name="w", trace_root=str(traces.root),
            ) as worker:
                results = dict(broker.stream(gid, timeout=120))
        finally:
            broker.stop()
        assert worker["stats"].executed == len(grid)
        return results, built

    @pytest.mark.parametrize(
        "grid",
        [_grid(), _grid()[:4]],
        ids=["two-fingerprints", "one-fingerprint"],
    )
    def test_cold_worker_builds_each_trace_once(
        self, tmp_path, worker_thread, serial_golden, monkeypatch, grid
    ):
        """A worker on an empty trace cache builds each unique
        fingerprint once, however many specs share it, and persists
        every build into its cache."""
        names = sorted({spec.workload for spec in grid})
        traces = TraceCache(tmp_path / "traces")
        results, built = self._run_counting_builds(
            tmp_path, grid, traces, monkeypatch, worker_thread
        )
        assert sorted(built) == names
        entries = list(traces.entry_paths())
        assert sorted(p.stem for p in entries) == sorted(
            trace_key(get_workload(name, SIZE)) for name in names
        )
        assert {
            spec.canonical(): _digest(value)
            for spec, value in results.items()
        } == {
            spec.canonical(): serial_golden[spec.canonical()]
            for spec in grid
        }

    def test_corrupt_trace_entry_is_rebuilt_by_the_worker(
        self, tmp_path, worker_thread, serial_golden, monkeypatch
    ):
        """A damaged entry in the worker's trace cache fails no spec:
        the worker rebuilds that one trace, rewrites a healthy entry,
        and reads the intact one."""
        traces = TraceCache(tmp_path / "traces")
        for name in ("em3d", "tomcatv"):
            cached_build(get_workload(name, SIZE), traces)
        damaged = traces.path(get_workload("em3d", SIZE))
        damaged.write_bytes(damaged.read_bytes()[:7])  # torn entry
        results, built = self._run_counting_builds(
            tmp_path, _grid(), traces, monkeypatch, worker_thread
        )
        assert built == ["em3d"]
        assert TraceCache(traces.root).get(get_workload("em3d", SIZE))[0]
        assert {
            spec.canonical(): _digest(value)
            for spec, value in results.items()
        } == serial_golden


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

    def test_negative_remote_workers_exit_before_any_bind(
        self, tmp_path, capsys, monkeypatch
    ):
        """A negative worker count forks nothing and would wait
        forever; it is refused before a broker binds (a bind here
        fails the test instead of hanging it)."""
        def no_bind(self):
            raise AssertionError("the broker must not bind")

        monkeypatch.setattr(Broker, "bind", no_bind)
        code = main([
            "run-all", "--backend", "remote", "--remote-workers", "-1",
            "--size", SIZE, "--workloads", "em3d",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--remote-workers must be at least 0, got -1" in (
            capsys.readouterr().err
        )


class TestBrokerStop:
    def test_stop_cuts_off_connected_workers(self, tmp_path):
        """stop() ends every connection, not only the listener: an
        idle worker polling the broker sees the broker go away and
        exits, and no handler dispatches after stop()."""
        from repro.runner import remote as remote_mod
        from repro.runner.remote import ProtocolError

        broker = Broker(cache=ResultCache(tmp_path / "cache"), poll=0.02)
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
            frames = sum(remote_mod._M_FRAMES.collect().values())
            worker.join(timeout=5)
        assert not worker.is_alive()
        assert time.monotonic() - stopped < 5
        assert lost, "the worker never noticed the broker stop"
        assert sum(remote_mod._M_FRAMES.collect().values()) == frames

    @pytest.mark.parametrize("failing", ["fork", "announce"])
    def test_failure_before_serve_raises_and_closes_the_listener(
        self, monkeypatch, failing
    ):
        """A run that fails between bind() and serve() — a refused
        worker fork, a raising announce callback — raises instead of
        hanging in stop() on a serving loop that never started, and
        leaves no listening socket behind."""
        def refuse(*args, **kwargs):
            raise OSError("refused")

        if failing == "fork":
            monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        backend = RemoteBackend(
            workers=1, announce=refuse if failing == "announce" else None
        )
        raised = []

        def run():
            try:
                Runner(backend=backend).run([census_job("em3d", SIZE)])
            except OSError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "the failed run hung in stop()"
        assert raised
        with pytest.raises(OSError):
            socket.create_connection(
                backend.broker.address, timeout=1
            ).close()


class TestHeldLeasePoll:
    """An idle lease poll waits at the broker instead of sending the
    worker to sleep, and the events that end idleness answer it at
    once — long before its ``poll`` of 30 s runs out."""

    def _held_poll(self, broker, monkeypatch):
        """Send one idle lease request on a thread; returns once the
        broker holds it, with the event set on the reply and the box
        the reply lands in."""
        held = threading.Event()
        real_wait = broker._work.wait

        def wait(timeout=None):
            held.set()
            return real_wait(timeout)

        monkeypatch.setattr(broker._work, "wait", wait)
        peer = _DoomedWorker(broker.address)
        _request(peer.stream, {"type": "hello", "worker": "w"})
        replied = threading.Event()
        box = {}

        def poll():
            box["reply"] = _request(
                peer.stream, {"type": "lease", "worker": "w", "max": 2}
            )
            replied.set()

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        assert held.wait(timeout=30)
        assert not replied.is_set()
        return peer, thread, replied, box

    def test_begin_shutdown_answers_a_held_poll(
        self, tmp_path, monkeypatch
    ):
        broker = Broker(cache=ResultCache(tmp_path), poll=30.0)
        broker.start()
        try:
            peer, thread, replied, box = self._held_poll(
                broker, monkeypatch
            )
            broker.begin_shutdown()
            assert replied.wait(timeout=10)
            assert box["reply"]["leases"] == []
            assert box["reply"]["done"] is True
            peer.crash()
        finally:
            broker.stop()
        thread.join(timeout=10)  # safety net: the reply already came
        assert not thread.is_alive()

    def test_submit_answers_a_held_poll_with_leases(
        self, tmp_path, monkeypatch
    ):
        broker = Broker(cache=ResultCache(tmp_path), poll=30.0)
        broker.start()
        try:
            peer, thread, replied, box = self._held_poll(
                broker, monkeypatch
            )
            broker.submit(
                [census_job("em3d", SIZE), census_job("tomcatv", SIZE)]
            )
            assert replied.wait(timeout=10)
            assert len(box["reply"]["leases"]) == 2
            assert box["reply"]["done"] is False
            peer.crash()
        finally:
            broker.stop()
        thread.join(timeout=10)  # safety net: the reply already came
        assert not thread.is_alive()


class TestLeaseSpans:
    def test_only_grants_leave_a_lease_span(self, tmp_path):
        """Idle lease polls are counted by the frame counter but leave
        no span; a poll that grants keys leaves one carrying the
        count."""
        import repro.telemetry as tm
        from repro.runner import remote as remote_mod

        tm.configure(tmp_path / "telemetry")
        broker = Broker(cache=ResultCache(tmp_path / "cache"), poll=0.02)
        address = broker.start()
        polls = remote_mod._M_FRAMES.value(type="lease")
        try:
            peer = _DoomedWorker(address)
            _request(peer.stream, {"type": "hello", "worker": "w"})
            lease = {"type": "lease", "worker": "w", "max": 2}
            for _ in range(3):
                assert _request(peer.stream, lease)["leases"] == []
            broker.submit(
                [census_job("em3d", SIZE), census_job("tomcatv", SIZE)]
            )
            assert len(_request(peer.stream, lease)["leases"]) == 2
            peer.crash()
        finally:
            broker.stop()
        assert remote_mod._M_FRAMES.value(type="lease") == polls + 4
        spans = [
            record for record in tm.read_spans(tmp_path / "telemetry")
            if record["name"] == "broker.lease"
        ]
        assert [span["attrs"]["keys"] for span in spans] == [2]


class TestLeaseTraceIds:
    def test_trace_ids_last_until_a_lease_ends_for_good(self, tmp_path):
        """A key's trace id and first-grant stamp live from its first
        grant until its lease ends for good: a reclaimed lease is
        regranted under the same id, a published or permanently
        failed key leaves neither behind, and a requeued key is traced
        afresh."""
        now = [1_000.0]
        good = census_job("em3d", SIZE)
        bad = census_job("tomcatv", SIZE)
        cache = ResultCache(tmp_path)
        broker = Broker(
            cache=cache,
            lease_ttl=10.0,
            max_attempts=1,
            clock=lambda: now[0],
        )
        lease = {"type": "lease", "worker": "w-1", "max": 2}
        try:
            gid = broker.submit([good, bad])
            grant = broker._dispatch(lease)
            traces = grant["traces"]
            key = {spec: key for key, spec in grant["leases"]}
            now[0] += 20.0  # w-1 went silent past the ttl
            regrant = broker._dispatch(dict(lease, worker="w-2"))
            assert regrant["traces"] == traces
            broker._dispatch({
                "type": "result", "worker": "w-2", "key": key[good],
                "report": pickle.dumps(Runner().run_one(good)),
            })
            broker._dispatch({
                "type": "error", "worker": "w-2", "key": key[bad],
                "message": "boom",
            })
            with pytest.raises(
                RemoteExecutionError, match="failed permanently"
            ):
                list(broker.stream(gid, timeout=10))
            assert broker._trace_ids == {}
            assert broker._lease_started == {}
            # evicted from memory and pruned from the cache, the
            # published key is requeued by a resubmission, and the
            # failed one is re-armed
            broker.results.clear()
            for path in cache.entry_paths():
                path.unlink()
            broker.submit([good, bad])
            again = broker._dispatch(lease)["traces"]
            assert sorted(again) == sorted(traces)
            assert not set(again.values()) & set(traces.values())
        finally:
            broker.stop()


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
