"""Integration tests for serve mode, grid submission, and autoscaling.

The headline scenario from the acceptance criteria: one persistent
broker accepts two submitted grids back-to-back without restart, the
controller scales the worker fleet up from zero on queue depth and
back down to zero on drain (asserted via the scaling-event log), and
every streamed result is byte-identical to the inline backend.

Plus the protocol-level seams: the proactive welcome trace offer, the
rejection of every other wire version, submitted-grid failure
delivery, the
``RemoteBackend(attach=...)`` path, and the serve/submit CLI plumbing.
"""

import hashlib
import io
import pickle
import socket
import struct
import time

import pytest

from repro.experiments.cli import build_parser, main, _runner_from_args
from repro.fleet import FleetService, QueueDepthPolicy
from repro.runner import (
    Broker,
    GridClient,
    PolicySpec,
    RemoteExecutionError,
    ResultCache,
    Runner,
    census_job,
    read_frame,
    run_worker,
    submit_grid,
    timing_job,
)
from repro.runner import remote as remote_mod
from repro.runner.remote import _request
from repro.workloads import TraceCache, get_workload, trace_key

SIZE = "tiny"


def _grid_a():
    return [
        timing_job("em3d", SIZE, PolicySpec(name=p))
        for p in ("base", "dsi", "ltp")
    ] + [census_job("em3d", SIZE)]


def _grid_b():
    # overlaps grid A on one spec (census em3d): the second submit
    # must serve it from the live results, not re-execute
    return [
        census_job("em3d", SIZE),
        census_job("tomcatv", SIZE),
        timing_job("tomcatv", SIZE, PolicySpec(name="ltp")),
    ]


def _digest(value) -> str:
    return hashlib.sha256(pickle.dumps(value)).hexdigest()


@pytest.fixture(scope="module")
def golden():
    results = Runner().run(_grid_a() + _grid_b())
    return {
        spec.canonical(): _digest(value)
        for spec, value in results.items()
    }


def _service(tmp_path, **kwargs):
    defaults = dict(
        cache=ResultCache(tmp_path / "serve-cache"),
        policy=QueueDepthPolicy(
            specs_per_worker=2, min_workers=0, max_workers=2,
            cooldown=0.2,
        ),
        scale_interval=0.05,
        lease_ttl=10.0,
        poll=0.02,
    )
    defaults.update(kwargs)
    return FleetService(**defaults)


class TestServeMode:
    def test_two_grids_autoscale_up_then_down(self, tmp_path, golden):
        """The acceptance scenario, end to end in one process."""
        with _service(tmp_path) as service:
            client = GridClient(service.address, name="it-client")
            try:
                first = client.submit(_grid_a())
                got_a = {
                    spec.canonical(): _digest(value)
                    for spec, value in client.stream(timeout=240)
                }
                second = client.submit(_grid_b())
                got_b = {
                    spec.canonical(): _digest(value)
                    for spec, value in client.stream(timeout=240)
                }
            finally:
                client.close()

            # same broker, no restart, two grids accounted
            assert first["grid"] != second["grid"]
            assert service.broker.stats.grids == 2
            assert service.broker.stats.grids_done == 2

            # byte-identical to the inline backend
            assert got_a == {
                spec.canonical(): golden[spec.canonical()]
                for spec in _grid_a()
            }
            assert got_b == {
                spec.canonical(): golden[spec.canonical()]
                for spec in _grid_b()
            }

            # the overlapping spec was served, not re-executed: every
            # unique spec ran exactly once fleet-wide
            unique = len(dict.fromkeys(_grid_a() + _grid_b()))
            assert service.broker.stats.results == unique
            assert second["cached"] >= 1

            # scaled up from zero on queue depth...
            events = list(service.controller.events)
            assert events and events[0].action == "up"
            assert events[0].live == 0
            assert events[0].desired > 0
            assert events[0].queue_depth > 0

            # ...and back down to zero on drain
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.supervisor.live() == 0 and any(
                    e.action == "down" and e.desired == 0
                    for e in service.controller.events
                ):
                    break
                time.sleep(0.05)
            downs = [
                e for e in service.controller.events
                if e.action == "down"
            ]
            assert downs and downs[-1].desired == 0
            assert service.supervisor.live() == 0

            # the status mirror landed at its documented path, and
            # nothing wrote per-spec claim or per-worker counter files
            status = (
                service.cache.root / "claims" / "fleet.json"
            )
            assert status.is_file()
            root = service.cache.root
            assert list(root.rglob("*.claim")) == []
            assert list(root.rglob("*.done")) == []

    def test_resubmitted_grid_is_fully_cached(self, tmp_path):
        with _service(tmp_path) as service:
            address = service.address
            results = submit_grid(address, _grid_a(), timeout=240)
            assert len(results) == len(_grid_a())
            with GridClient(address) as client:
                reply = client.submit(_grid_a())
                again = dict(client.stream(timeout=60))
            assert reply["cached"] == len(_grid_a())
            assert reply["new"] == 0
            assert {
                s.canonical(): _digest(v) for s, v in again.items()
            } == {
                s.canonical(): _digest(v) for s, v in results.items()
            }

    def test_failed_spec_reported_to_submitting_client(
        self, tmp_path
    ):
        bad = census_job("em3d", SIZE, overrides={"num_nodes": 1})
        with _service(
            tmp_path,
            cache=ResultCache(tmp_path / "fail-cache"),
            max_attempts=2,
        ) as service:
            with GridClient(service.address) as client:
                client.submit([bad, census_job("tomcatv", SIZE)])
                with pytest.raises(
                    RemoteExecutionError, match="failed permanently"
                ):
                    list(client.stream(timeout=240))

    def test_resubmitting_failed_grid_retries_instead_of_hanging(
        self, tmp_path
    ):
        """A permanently FAILED key must not poison later grids: a
        resubmit re-arms its attempt budget (the operator's retry
        path) rather than subscribing to a key nobody will lease."""
        bad = census_job("em3d", SIZE, overrides={"num_nodes": 1})
        with _service(
            tmp_path,
            cache=ResultCache(tmp_path / "cache"),
            max_attempts=1,
        ) as service:
            for attempt in range(2):
                with GridClient(service.address) as client:
                    client.submit([bad])
                    with pytest.raises(
                        RemoteExecutionError, match="failed"
                    ):
                        # bounded: the second submission must reach
                        # grid-done again, not poll forever
                        list(client.stream(timeout=120))
            # both submissions burned real attempts on the fleet
            assert service.broker.stats.errors == 2

    def test_grid_poll_batches_respect_the_wire_budget(
        self, tmp_path, monkeypatch
    ):
        """max_n results that individually fit could jointly exceed
        the frame cap — batches must split instead of tearing down
        the client connection."""
        specs = [
            census_job(name, SIZE) for name in ("em3d", "tomcatv")
        ]
        cache = ResultCache(tmp_path)
        for spec in specs:
            cache.put(spec, Runner().run_one(spec))
        monkeypatch.setattr(remote_mod, "_REPORT_BUDGET", 64)
        broker = Broker((), cache=cache, persistent=True, poll=0.02)
        address = broker.start()
        try:
            raw = _RawClient(address)
            reply = raw.request({
                "type": "submit", "client": "c", "specs": specs,
            })
            assert reply["cached"] == 2
            first = raw.request({
                "type": "grid-poll", "grid": reply["grid"],
                "max": 32,
            })
            # both results are ready, but one frame only carries what
            # fits the budget (every pickled report exceeds 64 bytes,
            # so exactly the always-shipped first item)
            assert first["count"] == 1
            second = raw.request({
                "type": "grid-poll", "grid": reply["grid"],
                "max": 32,
            })
            assert second["count"] == 1
            done = raw.request({
                "type": "grid-poll", "grid": reply["grid"],
                "max": 32,
            })
            assert done["type"] == "grid-done"
            raw.close()
        finally:
            broker.stop()

    def test_per_grid_broker_rejects_foreign_submissions(
        self, tmp_path
    ):
        """A run-all broker serves exactly its owner's grid: a
        foreign `submit` must be refused, not spliced into the
        owner's stream."""
        broker = Broker(
            [census_job("em3d", SIZE)], cache=ResultCache(tmp_path)
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            reply = raw.request({
                "type": "submit", "client": "stranger",
                "specs": [census_job("tomcatv", SIZE)],
            })
            assert reply["type"] == "error"
            assert "serve" in reply["message"]
            assert broker.stats.specs == 1  # untouched
            poll = raw.request({"type": "grid-poll", "grid": "g0"})
            assert poll["type"] == "error"
            raw.close()
        finally:
            broker.stop()

    def test_grid_state_is_dropped_after_done_and_idle_reap(
        self, tmp_path
    ):
        """Serve-mode memory lifetime: delivered grids drop at
        grid-done, vanished clients' grids drop after the idle
        timeout (their results stay durable in the cache)."""
        specs = [census_job("em3d", SIZE)]
        cache = ResultCache(tmp_path)
        for spec in specs:
            cache.put(spec, Runner().run_one(spec))
        broker = Broker(
            (), cache=cache, persistent=True, grid_idle_timeout=0.2
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            done_grid = raw.request({
                "type": "submit", "client": "c", "specs": specs,
            })["grid"]
            raw.request({
                "type": "grid-poll", "grid": done_grid, "max": 32,
            })
            done = raw.request({
                "type": "grid-poll", "grid": done_grid, "max": 32,
            })
            assert done["type"] == "grid-done"
            assert done_grid not in broker._grids  # dropped at done

            # a client that submits and vanishes: its grid reaps out
            lost_grid = raw.request({
                "type": "submit", "client": "ghost",
                "specs": [census_job("tomcatv", SIZE)],
            })["grid"]
            assert lost_grid in broker._grids
            time.sleep(0.3)
            assert broker.reap_grids() == 1
            assert lost_grid not in broker._grids
            assert not broker._subscribers  # subscriptions cleaned
            raw.close()
        finally:
            broker.stop()

    def test_persistent_results_map_is_budget_bounded(self, tmp_path):
        """A long-lived service must not hold every report in RAM
        forever: the in-memory map evicts to its budget, and evicted
        keys are still served from the durable cache."""
        grid = _grid_a()
        with _service(
            tmp_path,
            cache=ResultCache(tmp_path / "cache"),
        ) as service:
            service.broker.results_budget = 1  # evict ~everything
            results = submit_grid(
                service.address, grid, timeout=240
            )
            assert len(results) == len(grid)
            # only the most recent entry may remain in memory
            assert len(service.broker.results) <= 1
            # the stream() queue must stay empty in serve mode —
            # nothing drains it there, so puts would pin reports
            assert service.broker._queue.qsize() == 0
            # accounting matches the held entries exactly
            assert service.broker._result_bytes_held == sum(
                service.broker._result_sizes.values()
            )
            # ...yet a resubmission is still fully served (from disk)
            with GridClient(service.address) as client:
                reply = client.submit(grid)
                again = dict(client.stream(timeout=60))
            assert reply["cached"] == len(grid)
            assert len(again) == len(grid)

    def test_quiet_service_reaps_vanished_clients_grids(
        self, tmp_path
    ):
        """Grid reclamation must not depend on fresh submissions:
        the control loop sweeps idle grids on its own."""
        with _service(tmp_path) as service:
            service.broker.grid_idle_timeout = 0.3
            client = GridClient(service.address, name="vanisher")
            client.submit([census_job("em3d", SIZE)])
            client.close()  # dies without ever polling
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if not service.broker._grids:
                    break
                time.sleep(0.05)
            assert not service.broker._grids
            assert not service.broker._subscribers

    def test_resubmit_after_eviction_and_prune_reexecutes(
        self, tmp_path
    ):
        """A DONE key whose value is gone from both broker memory
        (budget eviction) and the cache (operator prune) must be
        re-enqueued on resubmit — deterministic re-execution, not a
        hung grid."""
        grid = [census_job("em3d", SIZE)]
        with _service(
            tmp_path, cache=ResultCache(tmp_path / "cache")
        ) as service:
            first = submit_grid(service.address, grid, timeout=240)
            assert len(first) == len(grid)
            executed_before = service.broker.stats.results
            # simulate eviction + a live-cache prune
            service.broker.results.clear()
            service.broker._result_sizes.clear()
            service.broker._result_bytes_held = 0
            for path in service.cache.entry_paths():
                path.unlink()
            again = submit_grid(service.address, grid, timeout=240)
            assert len(again) == len(grid)
            assert (
                service.broker.stats.results == executed_before + 1
            )
            assert {
                s.canonical(): _digest(v) for s, v in again.items()
            } == {
                s.canonical(): _digest(v) for s, v in first.items()
            }
            # the re-execution replaced, not double-counted, its
            # budget accounting
            assert service.broker._result_bytes_held == sum(
                service.broker._result_sizes.values()
            )

    def test_unshippable_report_becomes_a_grid_failure(
        self, tmp_path, monkeypatch
    ):
        """A single report too big for any frame is delivered as that
        spec's failure instead of an oversized frame that kills the
        client connection."""
        specs = [census_job("em3d", SIZE)]
        cache = ResultCache(tmp_path)
        for spec in specs:
            cache.put(spec, Runner().run_one(spec))
        monkeypatch.setattr(remote_mod, "_GRID_ITEM_LIMIT", 16)
        broker = Broker((), cache=cache, persistent=True, poll=0.02)
        address = broker.start()
        try:
            with GridClient(address) as client:
                client.submit(specs)
                assert client._sock.gettimeout() == 300.0
                with pytest.raises(
                    RemoteExecutionError, match="frame limit"
                ):
                    list(client.stream(timeout=60))
        finally:
            broker.stop()

    def test_lease_table_requeue_resets_done_only(self):
        from repro.runner.remote import DONE, PENDING, LeaseTable

        table = LeaseTable(["k"], ttl=10.0)
        assert table.requeue("k") is False  # pending: no-op
        [key] = table.lease("w", 1)
        table.complete(key)
        assert table.states()["k"] == DONE
        assert table.requeue("k") is True
        assert table.states()["k"] == PENDING
        assert table.requeue("missing") is False

    def test_requeue_resets_the_attempt_budget(self):
        """A spec that erred transiently before succeeding must not
        inherit that history on a post-requeue re-run — one new
        transient error would otherwise fail it permanently."""
        from repro.runner.remote import LeaseTable

        table = LeaseTable(["k"], ttl=10.0, max_attempts=2)
        [key] = table.lease("w", 1)
        assert table.fail(key, "w", "transient") is False
        [key] = table.lease("w", 1)
        table.complete(key)  # succeeded with 1 attempt burned
        assert table.requeue(key) is True
        [key] = table.lease("w", 1)
        # fresh budget: the first new error is not final
        assert table.fail(key, "w", "transient again") is False

    def test_stream_timeout_applies_even_while_results_trickle(
        self, tmp_path, monkeypatch
    ):
        """The deadline bounds the whole grid: a fleet that keeps one
        result per poll coming must still trip the timeout."""
        specs = [
            census_job(name, SIZE) for name in ("em3d", "tomcatv")
        ]
        cache = ResultCache(tmp_path)
        for spec in specs:
            cache.put(spec, Runner().run_one(spec))
        # one result per poll: every poll is non-empty
        monkeypatch.setattr(remote_mod, "_REPORT_BUDGET", 64)
        broker = Broker((), cache=cache, persistent=True, poll=0.02)
        address = broker.start()
        try:
            with GridClient(address) as client:
                client.submit(specs)
                with pytest.raises(
                    RemoteExecutionError, match="unresolved after"
                ):
                    collected = []
                    for item in client.stream(timeout=1e-9):
                        collected.append(item)
        finally:
            broker.stop()

    def test_grid_results_travel_under_the_broker_codec(
        self, tmp_path
    ):
        """Non-empty grid-results batches are packed through the wire
        codec like every other payload path."""
        from repro.codecs import blob_codec

        specs = [census_job("em3d", SIZE)]
        cache = ResultCache(tmp_path, codec="zlib")
        for spec in specs:
            cache.put(spec, Runner().run_one(spec))
        broker = Broker(
            (), cache=cache, persistent=True, codec="zlib", poll=0.02
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            gid = raw.request({
                "type": "submit", "client": "c", "specs": specs,
            })["grid"]
            reply = raw.request({
                "type": "grid-poll", "grid": gid, "max": 32,
            })
            assert isinstance(reply["results"], bytes)
            assert blob_codec(reply["results"]) == "zlib"
            raw.close()
            # and the GridClient decodes it transparently
            with GridClient(address) as client:
                client.submit(specs)
                decoded = dict(client.stream(timeout=60))
            assert len(decoded) == 1
        finally:
            broker.stop()

    def test_attach_backend_rides_the_service(self, tmp_path, golden):
        with _service(tmp_path) as service:
            runner = Runner(
                cache=ResultCache(tmp_path / "client-cache"),
                backend=remote_mod.RemoteBackend(
                    attach=service.address, timeout=240
                ),
            )
            results = runner.run(_grid_a())
            assert runner.stats.executed == len(_grid_a())
        assert {
            spec.canonical(): _digest(value)
            for spec, value in results.items()
        } == {
            spec.canonical(): golden[spec.canonical()]
            for spec in _grid_a()
        }
        # attach publishes into the *client's* cache (the backend
        # flips publishes off, so the Runner did its own puts)
        assert ResultCache(tmp_path / "client-cache").entries() == len(
            _grid_a()
        )


class _RawClient:
    """A bare protocol peer for frame-level assertions."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.stream = self.sock.makefile("rwb")

    def request(self, message):
        return _request(self.stream, message)

    def close(self):
        self.sock.close()


class TestFairShare:
    def test_two_tenants_share_the_fleet_without_starvation(
        self, tmp_path, golden
    ):
        """Two concurrent grids on one serve broker: both finish
        byte-identical to inline, and while both have pending work
        the lease scheduler strictly alternates between them — the
        large grid cannot starve the small one."""
        with _service(tmp_path) as service:
            table = service.broker.table
            grants = []
            orig_lease = table.lease

            def recording_lease(owner, max_n=1):
                granted = orig_lease(owner, max_n)
                grants.extend(granted)
                return granted

            table.lease = recording_lease
            tenant_a = GridClient(service.address, name="tenant-a")
            tenant_b = GridClient(service.address, name="tenant-b")
            try:
                # both grids are queued before any worker can lease:
                # submits are two wire round trips, worker fork is
                # slower — but the fairness walk below does not
                # depend on that ordering either way
                tenant_a.submit(_grid_a())
                tenant_b.submit(_grid_b())
                # grants before this point predate tenant B's
                # admission and are exempt from the alternation bound
                preamble = len(grants)
                got_a = {
                    spec.canonical(): _digest(value)
                    for spec, value in tenant_a.stream(timeout=240)
                }
                got_b = {
                    spec.canonical(): _digest(value)
                    for spec, value in tenant_b.stream(timeout=240)
                }
            finally:
                tenant_a.close()
                tenant_b.close()

            assert got_a == {
                spec.canonical(): golden[spec.canonical()]
                for spec in _grid_a()
            }
            assert got_b == {
                spec.canonical(): golden[spec.canonical()]
                for spec in _grid_b()
            }

            # starvation bound: replay the grant log against the
            # group tags; while both grids still had pending keys,
            # consecutive grants never go to the same grid twice
            group_of = dict(table._group_of)
            groups = sorted({group_of[key] for key in grants})
            assert len(groups) == 2  # two tenants, two groups
            remaining = {
                group: sum(
                    1 for g in group_of.values() if g == group
                )
                for group in groups
            }
            previous = None
            for index, key in enumerate(grants):
                group = group_of[key]
                both_live = all(n > 0 for n in remaining.values())
                if (
                    both_live
                    and previous is not None
                    and index >= preamble
                ):
                    assert group != previous, (
                        f"two consecutive grants to {group} while "
                        "the other tenant had pending work"
                    )
                remaining[group] -= 1
                previous = group


class TestGracefulDrain:
    def test_drained_worker_exits_clean_with_zero_stranded_leases(
        self, tmp_path
    ):
        """A worker drained mid-queue finishes its in-flight batch,
        exits 0 holding no leases, and the queue still drains."""
        import threading

        specs = _grid_a()
        broker = Broker(
            (), cache=ResultCache(tmp_path), persistent=True,
            poll=0.02,
        )
        address = broker.start()
        stats_box = {}

        def run(name):
            stats_box[name] = run_worker(address=address, name=name)

        victim = threading.Thread(
            target=run, args=("victim",), daemon=True
        )
        try:
            with GridClient(address) as client:
                client.submit(specs)
                victim.start()
                # let the victim get at least one spec done so the
                # drain lands mid-queue, not pre-first-lease
                deadline = time.monotonic() + 240
                while (
                    time.monotonic() < deadline
                    and broker.stats.results < 1
                ):
                    time.sleep(0.01)
                assert broker.stats.results >= 1
                assert broker.drain_worker("victim") is True
                victim.join(timeout=240)
                assert not victim.is_alive()
                assert stats_box["victim"].drained
                assert broker.stats.drains == 1
                # zero stranded leases: nothing in the table still
                # names the drained worker as owner
                with broker._lock:
                    owners = {
                        info.owner
                        for info in broker.table._leases.values()
                    }
                assert "victim" not in owners
                # the rest of the queue drains via a relief worker
                relief = threading.Thread(
                    target=run, args=("relief",), daemon=True
                )
                relief.start()
                results = dict(client.stream(timeout=240))
            assert len(results) == len(specs)
            # drained + relief executions cover the grid exactly once
            assert broker.stats.results == len(specs)
            # the idle relief worker leaves once the service closes
            broker.begin_shutdown()
            relief.join(timeout=30)
            assert not relief.is_alive()
        finally:
            broker.stop()

    def test_drain_frame_on_the_wire(self, tmp_path):
        """The v3 `drain` frame marks a named worker for retirement
        (idempotently) without touching anything else."""
        broker = Broker(
            (), cache=ResultCache(tmp_path), persistent=True,
            poll=0.02,
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            reply = raw.request({"type": "drain", "target": "w1"})
            assert reply == {"type": "ok", "draining": True}
            again = raw.request({"type": "drain", "target": "w1"})
            assert again["draining"] is True
            assert broker.stats.drains == 1  # idempotent
            bad = raw.request({"type": "drain", "target": ""})
            assert bad["draining"] is False
            raw.close()
        finally:
            broker.stop()


class TestWireAuth:
    TOKEN = "s3kr1t-fleet-token"

    def _broker(self, tmp_path, **kwargs):
        broker = Broker(
            (), cache=ResultCache(tmp_path), persistent=True,
            poll=0.02, **kwargs,
        )
        return broker, broker.start()

    def test_bad_token_client_is_rejected_before_dispatch(
        self, tmp_path
    ):
        broker, address = self._broker(
            tmp_path, auth_token=self.TOKEN
        )
        try:
            with pytest.raises(
                remote_mod.ProtocolError, match="auth"
            ):
                GridClient(
                    address, auth_token="wrong-token", name="evil"
                )
            assert broker.stats.specs == 0
            assert broker.stats.auth_failures >= 1
        finally:
            broker.stop()

    def test_unauthenticated_frames_are_refused_and_closed(
        self, tmp_path
    ):
        broker, address = self._broker(
            tmp_path, auth_token=self.TOKEN
        )
        try:
            raw = _RawClient(address)
            reply = raw.request({
                "type": "submit", "client": "evil",
                "specs": [census_job("em3d", SIZE)],
            })
            assert reply["type"] == "error"
            assert "auth" in reply["message"]
            # nothing was admitted, and the connection is closed
            assert broker.stats.specs == 0
            assert broker.stats.grids == 0
            with pytest.raises((OSError, remote_mod.ProtocolError)):
                raw.request({"type": "hello", "worker": "evil"})
            raw.close()
        finally:
            broker.stop()

    def test_authenticated_submit_and_worker_round_trip(
        self, tmp_path
    ):
        import threading

        broker, address = self._broker(
            tmp_path, auth_token=self.TOKEN
        )
        specs = [census_job("em3d", SIZE)]
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                address=address, name="w", auth_token=self.TOKEN
            ),
            daemon=True,
        )
        try:
            with GridClient(
                address, auth_token=self.TOKEN
            ) as client:
                client.submit(specs)
                worker.start()
                results = dict(client.stream(timeout=240))
            assert len(results) == len(specs)
            assert broker.stats.auth_failures == 0
        finally:
            broker.begin_shutdown()
            worker.join(timeout=30)
            broker.stop()
        assert not worker.is_alive()

    def test_token_bearing_client_interops_with_open_broker(
        self, tmp_path
    ):
        """A client configured with a token must still work against
        a broker that never enabled auth (the open broker acks the
        handshake instead of challenging)."""
        broker, address = self._broker(tmp_path)  # no auth_token
        try:
            with GridClient(
                address, auth_token=self.TOKEN
            ) as client:
                reply = client.submit([census_job("em3d", SIZE)])
                assert reply["type"] == "grid"
        finally:
            broker.stop()


class TestSubmitQuota:
    def test_over_quota_submit_gets_busy_then_admits_after_drain(
        self, tmp_path
    ):
        import threading

        broker = Broker(
            (), cache=ResultCache(tmp_path), persistent=True,
            poll=0.02, max_pending_per_client=1,
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            first = raw.request({
                "type": "submit", "client": "c",
                "specs": [census_job("em3d", SIZE)],
            })
            assert first["type"] == "grid"
            busy = raw.request({
                "type": "submit", "client": "c",
                "specs": [census_job("tomcatv", SIZE)],
            })
            assert busy["type"] == "busy"
            assert busy["retry_after"] > 0
            assert busy["outstanding"] == 1
            assert busy["limit"] == 1
            assert broker.stats.rejected_submits == 1
            # quotas are per client: another tenant is unaffected
            other = _RawClient(address)
            ok = other.request({
                "type": "submit", "client": "d",
                "specs": [census_job("tomcatv", SIZE)],
            })
            assert ok["type"] == "grid"
            # once c's backlog drains, the retry admits
            worker = threading.Thread(
                target=run_worker,
                kwargs=dict(address=address, name="w"),
                daemon=True,
            )
            worker.start()
            deadline = time.monotonic() + 240
            retry = busy
            while time.monotonic() < deadline:
                retry = raw.request({
                    "type": "submit", "client": "c",
                    "specs": [census_job("tomcatv", SIZE)],
                })
                if retry["type"] != "busy":
                    break
                time.sleep(0.05)
            assert retry["type"] == "grid"
            raw.close()
            other.close()
            broker.begin_shutdown()
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            broker.stop()

    def test_grid_client_retries_busy_within_quota_wait(
        self, tmp_path
    ):
        """GridClient.submit absorbs transient busy replies and gives
        up with a clear error once quota_wait expires."""
        broker = Broker(
            (), cache=ResultCache(tmp_path), persistent=True,
            poll=0.02, max_pending_per_client=1,
        )
        address = broker.start()
        try:
            with GridClient(address, name="c") as client:
                client.submit([census_job("em3d", SIZE)])
                with pytest.raises(
                    RemoteExecutionError, match="quota"
                ):
                    client.submit(
                        [census_job("tomcatv", SIZE)],
                        quota_wait=0.3,
                    )
        finally:
            broker.stop()


class TestWelcomeTraceOffer:
    def test_single_fingerprint_grid_offers_on_welcome(
        self, tmp_path
    ):
        """A grid with one unique workload fingerprint pushes its
        trace offer in the welcome frame — fetchable before any
        lease."""
        specs = [
            timing_job("em3d", SIZE, PolicySpec(name=p))
            for p in ("base", "ltp")
        ]
        tkey = trace_key(get_workload("em3d", SIZE))
        broker = Broker(
            specs,
            cache=ResultCache(tmp_path),
            ship_traces=True,
            trace_cache=TraceCache(tmp_path / "traces"),
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            welcome = raw.request({"type": "hello", "worker": "w"})
            assert welcome["trace_offers"] == [tkey]
            # the offer is immediately fulfillable, no lease needed
            blob = raw.request({
                "type": "trace-fetch", "worker": "w", "key": tkey,
            })
            assert blob["type"] == "trace"
            assert blob["key"] == tkey
            assert isinstance(blob["blob"], bytes)
            raw.close()
        finally:
            broker.stop()

    def test_multi_fingerprint_grid_keeps_lazy_offers(self, tmp_path):
        specs = [census_job("em3d", SIZE), census_job("tomcatv", SIZE)]
        broker = Broker(
            specs, cache=ResultCache(tmp_path), ship_traces=True
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            welcome = raw.request({"type": "hello", "worker": "w"})
            assert "trace_offers" not in welcome
            raw.close()
        finally:
            broker.stop()

    def test_persistent_broker_offers_for_the_live_grid_only(
        self, tmp_path
    ):
        """Welcome offers track the *unresolved* work: a serve broker
        that drained a grid of one fingerprint must still push the
        offer for the single-fingerprint grid it is serving now."""
        cache = ResultCache(tmp_path)
        broker = Broker(
            (),
            cache=cache,
            persistent=True,
            ship_traces=True,
            trace_cache=TraceCache(tmp_path / "traces"),
        )
        address = broker.start()
        try:
            raw = _RawClient(address)
            grid_a = [census_job("em3d", SIZE)]
            raw.request({
                "type": "submit", "client": "c", "specs": grid_a,
            })
            tkey_a = trace_key(get_workload("em3d", SIZE))
            welcome = raw.request({"type": "hello", "worker": "w1"})
            assert welcome["trace_offers"] == [tkey_a]
            # grid A drains (simulated: its key completes)
            with broker._lock:
                for key in list(broker._by_key):
                    broker.table.complete(key)
            # grid B has a different single fingerprint: a fresh
            # worker must be offered *its* trace, not nothing
            grid_b = [census_job("tomcatv", SIZE)]
            raw.request({
                "type": "submit", "client": "c", "specs": grid_b,
            })
            tkey_b = trace_key(get_workload("tomcatv", SIZE))
            welcome = raw.request({"type": "hello", "worker": "w2"})
            assert welcome["trace_offers"] == [tkey_b]
            raw.close()
        finally:
            broker.stop()

    def test_worker_prefetches_welcome_offer_into_local_cache(
        self, tmp_path
    ):
        """End to end: the worker persists the welcome-offered blob
        and builds nothing locally."""
        specs = [
            timing_job("em3d", SIZE, PolicySpec(name=p))
            for p in ("base", "ltp")
        ]
        broker = Broker(
            specs,
            cache=ResultCache(tmp_path / "cache"),
            ship_traces=True,
            trace_cache=TraceCache(tmp_path / "broker-traces"),
            poll=0.02,
        )
        address = broker.start()
        try:
            stats = run_worker(
                address=address,
                trace_root=str(tmp_path / "worker-traces"),
                name="w",
            )
            results = list(broker.stream(timeout=120))
        finally:
            broker.stop()
        assert len(results) == len(specs)
        assert stats.traces_fetched == 1
        assert stats.trace_fallbacks == 0
        local = TraceCache(tmp_path / "worker-traces")
        tkey = trace_key(get_workload("em3d", SIZE))
        assert local.path_for_key(tkey).is_file()


class TestWireCompat:
    @pytest.mark.parametrize("version", [1, 2, 9])
    def test_future_versions_are_rejected(self, version):
        """Every peer ships from this package, so any version but the
        current one — older or newer — is a protocol error."""
        payload = pickle.dumps({"type": "hello"})
        frame = (
            struct.pack("!4sBI", b"LTPW", version, len(payload))
            + payload
        )
        with pytest.raises(remote_mod.ProtocolError, match="version"):
            read_frame(io.BytesIO(frame))

    def test_current_version_is_v3(self):
        assert remote_mod.PROTOCOL_VERSION == 3


class TestWaitWorkersTimeout:
    def test_zero_worker_broker_fails_fast_instead_of_hanging(
        self, tmp_path
    ):
        backend = remote_mod.RemoteBackend(
            workers=0, wait_workers_timeout=1.0, poll=0.02
        )
        runner = Runner(
            cache=ResultCache(tmp_path), backend=backend
        )
        start = time.monotonic()
        with pytest.raises(
            RemoteExecutionError, match="no workers connected"
        ):
            runner.run([census_job("em3d", SIZE)])
        assert time.monotonic() - start < 30

    def test_warn_callback_fires_for_zero_workers(self, tmp_path):
        warnings = []
        backend = remote_mod.RemoteBackend(
            workers=0,
            wait_workers_timeout=0.5,
            poll=0.02,
            warn=warnings.append,
        )
        runner = Runner(cache=ResultCache(tmp_path), backend=backend)
        with pytest.raises(RemoteExecutionError):
            runner.run([census_job("em3d", SIZE)])
        assert warnings and "no local workers" in warnings[0]

    def test_external_worker_disarms_the_timeout(self, tmp_path):
        """The timeout covers *first contact* only: once any worker
        says hello, a slow grid must not trip it."""
        import threading

        spec = census_job("em3d", SIZE)
        broker = Broker(
            [spec], cache=ResultCache(tmp_path), poll=0.02
        )
        address = broker.start()
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(address=address, name="late"),
            daemon=True,
        )
        try:
            worker.start()
            results = list(broker.stream(
                timeout=120, first_worker_timeout=30
            ))
        finally:
            worker.join(timeout=30)
            broker.stop()
        assert len(results) == 1


class TestCliPlumbing:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.policy == "queue"
        assert args.min_workers == 0
        assert args.max_workers == 4
        assert args.cache_dir == ".repro-cache"
        assert args.grids is None

    def test_submit_parser(self):
        args = build_parser().parse_args([
            "submit", "fig9", "--connect", "127.0.0.1:7463",
            "--size", "tiny",
        ])
        assert args.experiment == "fig9"
        assert args.connect == ("127.0.0.1", 7463)

    def test_submit_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "fig9"])

    def test_attach_flag_builds_attached_backend(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--attach", "127.0.0.1:7463",
            "--cache-dir", str(tmp_path),
        ])
        backend = _runner_from_args(args).backend
        assert backend.name == "remote"
        assert backend.attach == ("127.0.0.1", 7463)
        assert backend.publishes is False

    def test_attach_conflicts_with_other_backends(self, capsys):
        code = main([
            "run-all", "--attach", "127.0.0.1:7463",
            "--backend", "pool", "--cache-dir", "/tmp/x",
        ])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_attach_conflicts_with_ship_traces(self, capsys):
        code = main([
            "run-all", "--attach", "127.0.0.1:7463",
            "--backend", "remote", "--ship-traces",
            "--cache-dir", "/tmp/x",
        ])
        assert code == 2
        assert "serve broker" in capsys.readouterr().err

    def test_attach_rejects_broker_only_flags(self, capsys):
        """Broker-side flags silently doing nothing under --attach
        would mislead operators — they are rejected explicitly."""
        for extra in (
            ["--remote-workers", "8"],
            ["--listen", "0.0.0.0:7999"],
            ["--lease-ttl", "5"],
            ["--wait-workers-timeout", "9"],
        ):
            code = main([
                "run-all", "--attach", "127.0.0.1:7463",
                "--cache-dir", "/tmp/x", *extra,
            ])
            assert code == 2
            assert "no effect" in capsys.readouterr().err

    def test_wait_workers_timeout_plumbs_through(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--backend", "remote",
            "--remote-workers", "0",
            "--wait-workers-timeout", "5",
            "--cache-dir", str(tmp_path),
        ])
        backend = _runner_from_args(args).backend
        assert backend.workers == 0
        assert backend.wait_workers_timeout == 5.0

    def test_serve_without_cache_is_rejected(self, capsys):
        code = main(["serve", "--no-cache"])
        assert code == 2
        assert "result cache" in capsys.readouterr().err

    def test_serve_rejects_inert_jobs_flag(self, capsys, tmp_path):
        code = main([
            "serve", "--cache-dir", str(tmp_path), "--jobs", "8",
        ])
        assert code == 2
        assert "no effect" in capsys.readouterr().err

    def test_serve_rejects_bad_policy_bounds(self, capsys, tmp_path):
        code = main([
            "serve", "--cache-dir", str(tmp_path),
            "--min-workers", "5", "--max-workers", "2",
        ])
        assert code == 2
        assert "max_workers" in capsys.readouterr().err


class TestSubmitCli:
    def test_submit_streams_and_renders(self, tmp_path, capsys):
        service = _service(tmp_path)
        service.start()
        host, port = service.address
        try:
            code = main([
                "submit", "table3", "--size", SIZE,
                "--workloads", "em3d",
                "--connect", f"{host}:{port}",
                "--timeout", "240",
            ])
        finally:
            service.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "grid streamed" in out
        assert service.broker.stats.grids_done == 1

    def test_submit_against_no_broker_fails_cleanly(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main([
            "submit", "fig9", "--connect", f"127.0.0.1:{port}",
        ])
        assert code == 1
        assert "lost serve broker" in capsys.readouterr().err
