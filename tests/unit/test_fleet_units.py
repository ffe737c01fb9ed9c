"""Unit tests for the fleet orchestration pieces in isolation.

Policies are driven with a fake clock, the supervisor with fake
process objects, and the controller with both — no forking, no
sleeping, no sockets. The real wiring is covered by
``tests/integration/test_fleet.py``.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FleetController,
    FleetSignals,
    QueueDepthPolicy,
    ThroughputPolicy,
    WorkerSupervisor,
    make_policy,
)


class FakeClock:
    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeProc:
    """Process stand-in the supervisor can spawn/reap/terminate."""

    def __init__(self, name):
        self.name = name
        self.alive = True
        self.exitcode = None
        self.terminated = False

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.terminated = True
        self.alive = False
        if self.exitcode is None:
            self.exitcode = -15

    def join(self, timeout=None):
        pass

    def die(self, exitcode):
        self.alive = False
        self.exitcode = exitcode


def _signals(queue_depth, live=0, throughput=0.0):
    return FleetSignals(
        queue_depth=queue_depth,
        live_workers=live,
        throughput=throughput,
    )


class TestQueueDepthPolicy:
    def test_targets_one_worker_per_chunk(self):
        policy = QueueDepthPolicy(
            specs_per_worker=4, max_workers=100, cooldown=0.0
        )
        assert policy.target(_signals(0)) == 0
        assert policy.target(_signals(1)) == 1
        assert policy.target(_signals(4)) == 1
        assert policy.target(_signals(5)) == 2
        assert policy.target(_signals(17)) == 5

    def test_decide_clamps_to_bounds(self):
        clock = FakeClock()
        policy = QueueDepthPolicy(
            specs_per_worker=1,
            min_workers=1,
            max_workers=3,
            cooldown=0.0,
            clock=clock,
        )
        assert policy.decide(_signals(100, live=1)) == 3
        assert policy.decide(_signals(0, live=3)) == 1  # min floor

    def test_cooldown_blocks_consecutive_changes(self):
        clock = FakeClock()
        policy = QueueDepthPolicy(
            specs_per_worker=1, max_workers=8, cooldown=10.0,
            clock=clock,
        )
        assert policy.decide(_signals(4, live=0)) == 4
        clock.advance(1.0)
        # a second change inside the cooldown holds the fleet size
        assert policy.decide(_signals(8, live=4)) == 4
        clock.advance(10.0)
        assert policy.decide(_signals(8, live=4)) == 8

    def test_shrinks_mid_queue_now_that_retirement_drains(self):
        """Since protocol v3 retirement is a graceful drain (the
        worker finishes its batch and exits; no leases stranded), so
        the policy follows the backlog down even while it is
        non-empty."""
        clock = FakeClock()
        policy = QueueDepthPolicy(
            specs_per_worker=10, max_workers=8, cooldown=0.0,
            clock=clock,
        )
        assert policy.decide(_signals(40, live=0)) == 4
        # backlog shrank to one chunk: follow it down immediately
        assert policy.decide(_signals(3, live=4)) == 1
        # drained: release the fleet entirely
        assert policy.decide(_signals(0, live=1)) == 0

    def test_no_change_needs_no_cooldown(self):
        clock = FakeClock()
        policy = QueueDepthPolicy(
            specs_per_worker=2, max_workers=8, cooldown=10.0,
            clock=clock,
        )
        assert policy.decide(_signals(8, live=0)) == 4
        clock.advance(1.0)
        # target == live: stable answers never wait out a cooldown
        assert policy.decide(_signals(8, live=4)) == 4
        clock.advance(1.0)
        assert policy.decide(_signals(7, live=4)) == 4

    def test_crash_replacement_is_never_blocked_by_cooldown(self):
        """The cooldown limits how often *desired* moves — replacing
        a crashed worker (live < unchanged desired) must go through
        on the next decision, deep inside the cooldown."""
        clock = FakeClock()
        policy = QueueDepthPolicy(
            specs_per_worker=2, max_workers=8, cooldown=10.0,
            clock=clock,
        )
        assert policy.decide(_signals(8, live=0)) == 4
        clock.advance(1.0)  # well inside the cooldown
        # one worker crashed; the policy still wants 4
        assert policy.decide(_signals(8, live=3)) == 4

    def test_out_of_bounds_live_corrected_despite_cooldown(self):
        clock = FakeClock()
        policy = QueueDepthPolicy(
            specs_per_worker=1, max_workers=3, cooldown=100.0,
            clock=clock,
        )
        assert policy.decide(_signals(10, live=0)) == 3
        clock.advance(1.0)
        # max_workers shrank (operator reconfigured): a live count
        # beyond the bounds is corrected immediately
        policy.max_workers = 2
        assert policy.decide(_signals(10, live=3)) == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            QueueDepthPolicy(min_workers=-1)
        with pytest.raises(ConfigurationError):
            QueueDepthPolicy(min_workers=5, max_workers=4)
        with pytest.raises(ConfigurationError):
            QueueDepthPolicy(cooldown=-1.0)
        with pytest.raises(ConfigurationError):
            QueueDepthPolicy(specs_per_worker=0)


class TestThroughputPolicy:
    def test_cold_fleet_uses_assumed_rate(self):
        policy = ThroughputPolicy(
            drain_target=60.0, assumed_rate=6.0, max_workers=100,
            cooldown=0.0,
        )
        # 12 specs at 6 jobs/min/worker and a 60s target -> 2 workers
        assert policy.target(_signals(12)) == 2

    def test_observed_throughput_refines_estimate(self):
        policy = ThroughputPolicy(
            drain_target=60.0, assumed_rate=6.0, max_workers=100,
            cooldown=0.0,
        )
        # 2 live workers doing 24 jobs/min total -> 12/worker; 24
        # queued specs drain in 60s with 2 workers
        assert policy.target(_signals(24, live=2, throughput=24.0)) == 2
        # slower observed rate needs a bigger fleet
        assert policy.target(_signals(24, live=2, throughput=4.0)) == 12

    def test_empty_queue_targets_zero(self):
        policy = ThroughputPolicy(max_workers=8, cooldown=0.0)
        assert policy.target(_signals(0, live=4, throughput=60.0)) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ThroughputPolicy(drain_target=0)
        with pytest.raises(ConfigurationError):
            ThroughputPolicy(assumed_rate=0)


class TestMakePolicy:
    def test_builds_both_policies(self):
        queue = make_policy(
            "queue", specs_per_worker=2, max_workers=7,
            drain_target=None,
        )
        assert queue.specs_per_worker == 2
        assert queue.max_workers == 7
        through = make_policy("throughput", drain_target=30.0)
        assert through.drain_target == 30.0

    def test_foreign_knobs_are_dropped(self):
        # CLI passes every knob; the factory keeps the relevant ones
        queue = make_policy(
            "queue", specs_per_worker=3, drain_target=30.0,
        )
        assert queue.specs_per_worker == 3
        through = make_policy(
            "throughput", specs_per_worker=3, drain_target=30.0,
        )
        assert through.drain_target == 30.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("magic")


class TestWorkerSupervisor:
    def _supervisor(self, clock=None):
        spawned = []

        def spawn(name, address):
            proc = FakeProc(name)
            spawned.append(proc)
            return proc

        sup = WorkerSupervisor(
            ("127.0.0.1", 1), spawn=spawn, clock=clock or FakeClock()
        )
        return sup, spawned

    def test_scale_up_then_down_retires_newest_first(self):
        sup, spawned = self._supervisor()
        assert sup.scale_to(3) == 3
        assert sup.live() == 3
        assert sup.scale_to(1) == -2
        assert sup.live() == 1
        # newest retired first: the oldest keeps its warm memo
        assert [p.terminated for p in spawned] == [False, True, True]
        assert sup.retired == 2

    def test_reap_reports_unsolicited_exits_only(self):
        sup, spawned = self._supervisor()
        sup.scale_to(2)
        sup.scale_to(1)  # retire one: must not show up in reap()
        assert sup.reap() == []
        spawned[0].die(exitcode=1)
        exits = sup.reap()
        assert [e.crashed for e in exits] == [True]
        assert exits[0].exitcode == 1
        assert sup.live() == 0
        # reaped workers are gone; a clean exit is not a crash
        sup.scale_to(1)
        spawned[-1].die(exitcode=0)
        assert [e.crashed for e in sup.reap()] == [False]

    def test_scale_replaces_dead_workers(self):
        sup, spawned = self._supervisor()
        sup.scale_to(2)
        spawned[0].die(exitcode=1)
        assert sup.scale_to(2) == 1  # one fresh fork
        assert sup.live() == 2

    def test_scale_to_never_swallows_crash_exits(self):
        """scale_to must leave dead workers for reap() — the crash
        circuit breaker counts only what reap() reports, so a crash
        landing just before a scaling action must still surface."""
        sup, spawned = self._supervisor()
        sup.scale_to(2)
        spawned[0].die(exitcode=1)
        sup.scale_to(2)  # respawns, but must not reap the corpse
        exits = sup.reap()
        assert [e.crashed for e in exits] == [True]

    def test_worker_names_are_slots_reused_across_respawns(self):
        """A serve fleet scaling 0->N->0 per grid must not mint a
        fresh worker name (and thus a fresh completion-counter file)
        per spawn — names are bounded slots."""
        sup, spawned = self._supervisor()
        sup.scale_to(2)
        first_names = set(sup.names())
        sup.scale_to(0)
        sup.scale_to(2)
        assert set(sup.names()) == first_names
        assert len({p.name for p in spawned}) == 2  # 4 spawns, 2 names

    def test_shrink_survives_worker_dying_mid_scan(self):
        """A worker that dies between the live() count and the
        retirement scan must not raise out of scale_to."""
        sup, spawned = self._supervisor()
        sup.scale_to(1)

        class Flipper:
            """Alive for the live() count, dead for the scan."""

            def __init__(self):
                self.calls = 0
                self.exitcode = 1

            def is_alive(self):
                self.calls += 1
                return self.calls == 1

            def terminate(self):
                pass

            def join(self, timeout=None):
                pass

        sup.scale_to(0)  # retire the fake proc normally first
        sup._procs["flipper"] = Flipper()
        assert sup.scale_to(0) == 0  # no StopIteration
        assert [e.exitcode for e in sup.reap()] == [1]

    def test_scale_up_is_bounded_when_children_die_on_arrival(self):
        """Children that crash faster than we fork must not turn one
        scale_to call into an unbounded fork loop — the spawn count
        is fixed up front and the breaker handles the rest."""
        spawned = []

        def spawn(name, address):
            proc = FakeProc(name)
            proc.alive = False  # dies before the next live() check
            proc.exitcode = 1
            spawned.append(proc)
            return proc

        sup = WorkerSupervisor(("127.0.0.1", 1), spawn=spawn)
        assert sup.scale_to(3) == 3  # exactly 3 forks, no loop
        assert len(spawned) == 3
        assert sup.live() == 0
        # the corpses are still visible to reap() for crash counting
        assert len(sup.reap()) == 3

    def test_stop_terminates_everything(self):
        sup, spawned = self._supervisor()
        sup.scale_to(3)
        sup.stop()
        assert sup.live() == 0
        assert all(p.terminated for p in spawned)


class TestWorkerSupervisorDrain:
    def _supervisor(self, drain_grace=30.0, drain_accepts=True):
        clock = FakeClock()
        spawned = []
        drained = []

        def spawn(name, address):
            proc = FakeProc(name)
            spawned.append(proc)
            return proc

        def drain(name):
            drained.append(name)
            return drain_accepts

        sup = WorkerSupervisor(
            ("127.0.0.1", 1),
            spawn=spawn,
            clock=clock,
            drain=drain,
            drain_grace=drain_grace,
        )
        return sup, spawned, drained, clock

    def test_shrink_prefers_drain_over_terminate(self):
        sup, spawned, drained, clock = self._supervisor()
        sup.scale_to(3)
        assert sup.scale_to(1) == -2
        # nothing terminated: both victims were asked to drain and
        # stay alive until their in-flight batch finishes
        assert not any(p.terminated for p in spawned)
        assert len(drained) == 2
        assert sup.live() == 3
        assert sup.pending_retirement() == 2
        assert sup.retired == 2
        # newest drained first (oldest keeps its warm memos)
        assert drained == [spawned[2].name, spawned[1].name]

    def test_drained_exit_is_solicited_not_a_crash(self):
        sup, spawned, drained, clock = self._supervisor()
        sup.scale_to(2)
        sup.scale_to(1)
        victim = next(p for p in spawned if p.name == drained[0])
        victim.die(exitcode=0)
        # the drain completing must not surface as an exit event —
        # the controller's crash breaker only counts unsolicited ones
        assert sup.reap() == []
        assert sup.live() == 1
        assert sup.pending_retirement() == 0
        assert sup.retired == 1  # counted once, at drain time

    def test_drain_deadline_escalates_to_terminate(self):
        sup, spawned, drained, clock = self._supervisor(
            drain_grace=10.0
        )
        sup.scale_to(2)
        sup.scale_to(1)
        victim = next(p for p in spawned if p.name == drained[0])
        clock.advance(5.0)
        assert sup.reap() == []  # inside the grace: still draining
        assert victim.alive
        clock.advance(6.0)
        assert sup.reap() == []  # escalation is silent too
        assert victim.terminated
        assert sup.pending_retirement() == 0
        assert sup.retired == 1  # not double-counted on escalation

    def test_drain_refusal_falls_back_to_terminate(self):
        sup, spawned, drained, clock = self._supervisor(
            drain_accepts=False
        )
        sup.scale_to(2)
        assert sup.scale_to(1) == -1
        assert len(drained) == 1  # asked, refused
        assert sum(p.terminated for p in spawned) == 1
        assert sup.live() == 1
        assert sup.pending_retirement() == 0

    def test_scale_counts_draining_workers_as_retired(self):
        """A worker already draining is committed to leave: asking
        for the same size again must not drain another one, and a
        scale-up spawns fresh capacity rather than waiting."""
        sup, spawned, drained, clock = self._supervisor()
        sup.scale_to(3)
        sup.scale_to(1)
        assert len(drained) == 2
        sup.scale_to(1)  # idempotent: no third drain
        assert len(drained) == 2
        assert sup.scale_to(2) == 1  # spawns; draining pair ignored
        assert len(spawned) == 4


class TestThroughputWindow:
    def test_windowed_rate_tracks_recent_deltas_not_lifetime(self):
        from repro.fleet import ThroughputWindow

        window = ThroughputWindow(window=60.0)
        # an old burst: 600 jobs long ago must not dilute the rate
        assert window.observe(600, now=1_000.0) == 0.0
        # quiet for ages, then 30 jobs in the last 60s -> 30/min
        assert window.observe(600, now=9_000.0) == 0.0
        rate = window.observe(630, now=9_060.0)
        assert rate == pytest.approx(30.0)

    def test_service_signal_follows_broker_results(
        self, tmp_path, monkeypatch
    ):
        """The serve autoscaler's throughput signal is the broker's
        in-memory count of first publications — no claims directory
        or counter file is read (or written) to produce it."""
        import types

        import repro.fleet.service as service_mod
        from repro.fleet import FleetService
        from repro.runner import ResultCache

        clock = FakeClock(now=1_000.0)
        monkeypatch.setattr(
            service_mod, "time", types.SimpleNamespace(time=clock)
        )
        service = FleetService(
            cache=ResultCache(tmp_path), throughput_window=60.0
        )
        assert service._signals() == (0, 0.0)
        service.broker.stats.results = 30
        clock.advance(60.0)
        assert service._signals() == (0, pytest.approx(30.0))
        assert not (tmp_path / "claims").exists()


class TestFleetController:
    def _controller(self, tmp_path=None, max_crashes=3, signals=None):
        clock = FakeClock()
        spawned = []

        def spawn(name, address):
            proc = FakeProc(name)
            spawned.append(proc)
            return proc

        sup = WorkerSupervisor(
            ("127.0.0.1", 1), spawn=spawn, clock=clock
        )
        policy = QueueDepthPolicy(
            specs_per_worker=2, max_workers=4, cooldown=0.0,
            clock=clock,
        )
        state = {"queue": 0, "throughput": 0.0}
        controller = FleetController(
            sup,
            policy,
            signals=signals or (
                lambda: (state["queue"], state["throughput"])
            ),
            clock=clock,
            max_crashes=max_crashes,
            status_path=(
                tmp_path / "fleet.json" if tmp_path else None
            ),
        )
        return controller, state, spawned, clock

    def test_scales_up_and_down_with_events(self):
        controller, state, spawned, clock = self._controller()
        state["queue"] = 7
        events = controller.tick()
        assert [e.action for e in events] == ["up"]
        assert controller.supervisor.live() == 4
        assert controller.desired == 4
        clock.advance(5)
        state["queue"] = 0
        events = controller.tick()
        assert [e.action for e in events] == ["down"]
        assert controller.supervisor.live() == 0
        assert [e.action for e in controller.events] == ["up", "down"]

    def test_crash_circuit_breaker_halts_scaling(self):
        controller, state, spawned, clock = self._controller(
            max_crashes=3
        )
        state["queue"] = 2
        controller.tick()
        assert controller.supervisor.live() == 1
        for _ in range(3):
            # the worker crashes; the controller reaps and respawns
            spawned[-1].die(exitcode=1)
            clock.advance(1)
            controller.tick()
        assert controller.halted
        halts = [e for e in controller.events if e.action == "halt"]
        assert len(halts) == 1
        # halted: no more respawns however deep the queue
        before = len(spawned)
        clock.advance(1)
        controller.tick()
        assert len(spawned) == before
        # operator re-arms
        controller.reset_crashes()
        controller.tick()
        assert controller.supervisor.live() == 1

    def test_latched_halt_survives_a_clean_exit(self):
        """Once the breaker latches, only reset_crashes() releases
        it — a stray clean exit must not silently resume scaling
        while the status still says HALTED."""
        controller, state, spawned, clock = self._controller(
            max_crashes=2
        )
        state["queue"] = 2
        controller.tick()
        for _ in range(2):
            spawned[-1].die(exitcode=1)
            clock.advance(1)
            controller.tick()
        assert controller.halted
        # a worker spawned earlier exits cleanly: still halted, and
        # still not scaling
        spawned.append(FakeProc("stray"))
        controller.supervisor._procs["stray"] = spawned[-1]
        spawned[-1].die(exitcode=0)
        clock.advance(1)
        before = len(spawned)
        controller.tick()
        assert controller.halted
        assert len(spawned) == before  # no respawn while latched

    def test_clean_exit_resets_crash_count(self):
        controller, state, spawned, clock = self._controller(
            max_crashes=2
        )
        state["queue"] = 2
        controller.tick()
        spawned[-1].die(exitcode=1)
        clock.advance(1)
        controller.tick()
        spawned[-1].die(exitcode=0)  # clean exit re-arms the breaker
        clock.advance(1)
        controller.tick()
        spawned[-1].die(exitcode=1)
        clock.advance(1)
        controller.tick()
        assert not controller.halted

    def test_status_file_mirrors_state(self, tmp_path):
        controller, state, spawned, clock = self._controller(
            tmp_path=tmp_path
        )
        state["queue"] = 3
        controller.tick()
        data = json.loads((tmp_path / "fleet.json").read_text())
        assert data["live"] == 2
        assert data["desired"] == 2
        assert data["queue_depth"] == 3
        assert data["policy"] == "queue"
        assert data["halted"] is False
        assert [e["action"] for e in data["events"]] == ["up"]


class TestSubmitQuotaClamp:
    """GridClient.submit quota backpressure with an injectable clock.

    The broker's ``busy`` reply advertises ``retry_after``; the client
    must spend its whole ``quota_wait`` budget before raising — when
    the advertised wait overshoots the remaining budget, the last
    sleep clamps to what's left and the submit is retried once at the
    deadline. No sockets: ``_request`` is monkeypatched and the
    client is built without connecting.
    """

    def _client(self, monkeypatch, replies):
        from repro.runner import remote

        client = remote.GridClient.__new__(remote.GridClient)
        client.name = "unit-client"
        client._stream = object()
        client.grid = None
        client.specs = 0
        client.cached = 0
        calls = []

        def fake_request(stream, message):
            calls.append(message)
            return replies.pop(0)

        monkeypatch.setattr(remote, "_request", fake_request)
        return client, calls

    def _busy(self, retry_after):
        return {
            "type": "busy",
            "retry_after": retry_after,
            "message": "quota",
        }

    def _grid(self):
        return {"type": "grid", "grid": "g-1", "specs": 1, "cached": 0}

    def test_overshooting_retry_after_clamps_to_budget(
        self, monkeypatch
    ):
        # failing-before: retry_after=10 > quota_wait=1 used to raise
        # immediately, even though a 1s sleep fit a final attempt
        client, calls = self._client(
            monkeypatch, [self._busy(10.0), self._grid()]
        )
        clock = FakeClock(now=0.0)
        sleeps = []

        def sleep(dt):
            sleeps.append(dt)
            clock.advance(dt)

        reply = client.submit(
            [], quota_wait=1.0, clock=clock, sleep=sleep
        )
        assert reply["grid"] == "g-1"
        assert sleeps == [1.0]  # clamped, not the advertised 10s
        assert len(calls) == 2  # the deadline attempt happened

    def test_still_busy_at_deadline_raises(self, monkeypatch):
        from repro.runner.remote import RemoteExecutionError

        client, calls = self._client(
            monkeypatch, [self._busy(10.0), self._busy(10.0)]
        )
        clock = FakeClock(now=0.0)
        sleeps = []

        def sleep(dt):
            sleeps.append(dt)
            clock.advance(dt)

        with pytest.raises(RemoteExecutionError, match="quota"):
            client.submit(
                [], quota_wait=1.0, clock=clock, sleep=sleep
            )
        assert sleeps == [1.0]  # exactly one clamped sleep, no more
        assert len(calls) == 2

    def test_within_budget_retries_use_advertised_wait(
        self, monkeypatch
    ):
        client, calls = self._client(
            monkeypatch,
            [self._busy(0.2), self._busy(0.2), self._grid()],
        )
        clock = FakeClock(now=0.0)
        sleeps = []

        def sleep(dt):
            sleeps.append(dt)
            clock.advance(dt)

        reply = client.submit(
            [], quota_wait=1.0, clock=clock, sleep=sleep
        )
        assert reply["grid"] == "g-1"
        assert sleeps == [0.2, 0.2]

    def test_unbounded_quota_wait_never_clamps(self, monkeypatch):
        client, calls = self._client(
            monkeypatch,
            [self._busy(5.0), self._busy(5.0), self._grid()],
        )
        clock = FakeClock(now=0.0)
        sleeps = []

        def sleep(dt):
            sleeps.append(dt)
            clock.advance(dt)

        client.submit(
            [], quota_wait=None, clock=clock, sleep=sleep
        )
        assert sleeps == [5.0, 5.0]
