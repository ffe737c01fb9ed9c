"""Unit tests for the fleet orchestration pieces in isolation.

The supervisor is driven with fake process objects, and the service's
supervision step with the same fakes — no forking, no sleeping, no
sockets. The real wiring is covered by
``tests/integration/test_fleet.py``.
"""

import json
import os

import pytest

import repro.telemetry as tm
from repro.errors import ConfigurationError
from repro.fleet import FleetService, WorkerExit, WorkerSupervisor
from repro.fleet import service as service_mod
from repro.runner import ResultCache


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


def _fake_supervisor(workers):
    spawned = []

    def spawn(name, address):
        proc = FakeProc(name)
        spawned.append(proc)
        return proc

    sup = WorkerSupervisor(("127.0.0.1", 1), workers=workers, spawn=spawn)
    return sup, spawned


class TestWorkerExit:
    @pytest.mark.parametrize(
        "exitcode, crashed",
        [(0, False), (None, False), (1, True), (-9, True), (-15, True)],
        ids=["clean", "unknown", "error", "sigkill", "sigterm"],
    )
    def test_crashed_is_any_abnormal_exit(self, exitcode, crashed):
        assert WorkerExit("serve-1", exitcode).crashed is crashed


class TestWorkerSupervisor:
    def test_reap_reports_unsolicited_exits_only(self):
        sup, spawned = _fake_supervisor(workers=1)
        sup.refill()
        assert sup.reap() == []  # nothing exited yet
        spawned[0].die(exitcode=1)
        exits = sup.reap()
        assert [e.crashed for e in exits] == [True]
        assert exits[0].exitcode == 1
        assert sup.live() == 0
        # reaped workers are gone; a clean exit is not a crash
        sup.refill()
        spawned[-1].die(exitcode=0)
        assert [e.crashed for e in sup.reap()] == [False]

    def test_refill_replaces_dead_workers(self):
        sup, spawned = _fake_supervisor(workers=2)
        assert sup.refill() == 2
        assert sup.refill() == 0  # a full pool forks nothing
        spawned[0].die(exitcode=1)
        assert sup.refill() == 1  # one fresh fork
        assert sup.live() == 2
        assert sup.spawned == len(spawned) == 3

    def test_refill_never_swallows_crash_exits(self):
        """refill must leave dead workers for reap() — the crash
        breaker counts only what reap() reports, so a crash landing
        just before a refill must still surface."""
        sup, spawned = _fake_supervisor(workers=2)
        sup.refill()
        spawned[0].die(exitcode=1)
        sup.refill()  # respawns, but must not reap the corpse
        exits = sup.reap()
        assert [e.crashed for e in exits] == [True]

    def test_worker_names_are_slots_reused_across_respawns(self):
        """A pool whose workers keep dying must not mint a fresh
        worker name (and thus fresh per-worker broker state and
        metric series) per respawn — names are bounded slots."""
        sup, spawned = _fake_supervisor(workers=2)
        sup.refill()
        first_names = set(sup.names())
        for proc in spawned:
            proc.die(exitcode=1)
        sup.reap()
        sup.refill()
        assert set(sup.names()) == first_names
        assert len({p.name for p in spawned}) == 2  # 4 spawns, 2 names

    def test_refill_is_bounded_when_children_die_on_arrival(self):
        """Children that crash faster than we fork must not turn one
        refill call into an unbounded fork loop — the spawn count
        is fixed up front and the breaker handles the rest."""
        spawned = []

        def spawn(name, address):
            proc = FakeProc(name)
            proc.alive = False  # dies before the next live() check
            proc.exitcode = 1
            spawned.append(proc)
            return proc

        sup = WorkerSupervisor(("127.0.0.1", 1), workers=3, spawn=spawn)
        assert sup.refill() == 3  # exactly 3 forks, no loop
        assert len(spawned) == 3
        assert sup.live() == 0
        # the corpses are still visible to reap() for crash counting
        assert len(sup.reap()) == 3

    def test_stop_terminates_everything(self):
        sup, spawned = _fake_supervisor(workers=3)
        sup.refill()
        sup.stop()
        assert sup.live() == 0
        assert all(p.terminated for p in spawned)

    def test_names_are_prefixed_slots_of_this_process(self):
        sup, _ = _fake_supervisor(workers=2)
        sup.refill()
        pid = os.getpid()
        assert sup.names() == [f"fleet-1-{pid}", f"fleet-2-{pid}"]

    def test_live_counts_without_reaping(self):
        sup, spawned = _fake_supervisor(workers=2)
        sup.refill()
        spawned[0].die(exitcode=1)
        assert sup.live() == 1
        assert len(sup.names()) == 2  # the corpse waits for reap()
        sup.reap()
        assert sup.names() == [spawned[1].name]

    def test_lifecycle_counter_tracks_spawns_and_exits(self):
        lifecycle = tm.counter("repro_fleet_worker_lifecycle_total")
        spawns = lifecycle.value(event="spawn")
        exits = lifecycle.value(event="exit")
        sup, spawned = _fake_supervisor(workers=2)
        sup.refill()
        spawned[0].die(exitcode=1)
        sup.reap()
        sup.refill()
        assert lifecycle.value(event="spawn") - spawns == 3
        assert lifecycle.value(event="exit") - exits == 1
        sup.stop()  # a solicited stop is not an exit event
        assert lifecycle.value(event="exit") - exits == 1


class TestSupervisionStep:
    """``FleetService.step`` over a fake supervisor: the crash
    breaker, the refill and the ``fleet.json`` mirror. The service is
    never started, so nothing binds or forks."""

    def _service(self, tmp_path, workers=1, max_crashes=3):
        service = FleetService(
            cache=ResultCache(tmp_path / "cache"),
            workers=workers,
            max_crashes=max_crashes,
        )
        service.supervisor, spawned = _fake_supervisor(workers)
        return service, spawned

    def test_crash_circuit_breaker_halts_refilling(self, tmp_path):
        service, spawned = self._service(tmp_path, max_crashes=3)
        service.step()
        assert service.supervisor.live() == 1
        for _ in range(3):
            # the worker crashes; the step reaps and respawns
            spawned[-1].die(exitcode=1)
            service.step()
        assert service.halted
        # halted: no more respawns
        before = len(spawned)
        service.step()
        assert len(spawned) == before
        # operator re-arms
        service.reset_crashes()
        service.step()
        assert service.supervisor.live() == 1

    def test_latched_halt_survives_a_clean_exit(self, tmp_path):
        """Once the breaker latches, only reset_crashes() releases
        it — a stray clean exit must not silently resume refilling
        while the status still says HALTED."""
        service, spawned = self._service(tmp_path, max_crashes=2)
        service.step()
        for _ in range(2):
            spawned[-1].die(exitcode=1)
            service.step()
        assert service.halted
        # a worker spawned earlier exits cleanly: still halted, and
        # still not refilling
        spawned.append(FakeProc("stray"))
        service.supervisor._procs["stray"] = spawned[-1]
        spawned[-1].die(exitcode=0)
        before = len(spawned)
        service.step()
        assert service.halted
        assert len(spawned) == before  # no respawn while latched

    def test_clean_exit_resets_crash_count(self, tmp_path):
        service, spawned = self._service(tmp_path, max_crashes=2)
        service.step()
        spawned[-1].die(exitcode=1)
        service.step()
        spawned[-1].die(exitcode=0)  # clean exit re-arms the breaker
        service.step()
        spawned[-1].die(exitcode=1)
        service.step()
        assert not service.halted

    def test_status_file_mirrors_state(self, tmp_path):
        service, spawned = self._service(tmp_path, workers=2)
        service.step()
        data = json.loads(
            (tmp_path / "cache" / "claims" / "fleet.json").read_text()
        )
        assert sorted(data) == ["desired", "halted", "live", "updated"]
        assert data["live"] == 2
        assert data["desired"] == 2
        assert data["halted"] is False
        assert service.health()["fleet"] == {
            "desired": 2, "halted": False, "live": 2, "spawned": 2,
        }

    def test_first_step_forks_the_whole_pool(self, tmp_path):
        service, spawned = self._service(tmp_path, workers=3)
        assert service.step() == []
        assert len(spawned) == 3
        assert service.supervisor.live() == 3

    def test_step_returns_the_exits_it_reaped(self, tmp_path):
        service, spawned = self._service(tmp_path, workers=2)
        service.step()
        spawned[0].die(exitcode=0)
        spawned[1].die(exitcode=-9)
        exits = service.step()
        assert sorted((e.name, e.exitcode) for e in exits) == sorted(
            [(spawned[0].name, 0), (spawned[1].name, -9)]
        )
        assert service.step() == []  # each exit is reported once

    def test_clean_exit_is_refilled_too(self, tmp_path):
        """The pool never shrinks: a worker that leaves cleanly is
        replaced like a crashed one, without counting as a crash."""
        service, spawned = self._service(
            tmp_path, workers=2, max_crashes=1
        )
        service.step()
        spawned[0].die(exitcode=0)
        service.step()
        assert not service.halted
        assert service.supervisor.live() == 2
        assert service.supervisor.spawned == 3

    def test_one_crash_halts_when_max_crashes_is_one(self, tmp_path):
        service, spawned = self._service(
            tmp_path, workers=2, max_crashes=1
        )
        service.step()
        spawned[0].die(exitcode=1)
        service.step()
        assert service.halted
        assert service.supervisor.live() == 1  # the survivor stays
        assert len(spawned) == 2  # the crashed slot stays empty

    def test_step_sets_the_pool_gauges(self, tmp_path):
        service, spawned = self._service(
            tmp_path, workers=2, max_crashes=1
        )
        live = tm.gauge("repro_fleet_live_workers")
        desired = tm.gauge("repro_fleet_desired_workers")
        halted = tm.gauge("repro_fleet_halted")
        service.step()
        assert (live.value(), desired.value(), halted.value()) == (
            2, 2, 0
        )
        spawned[0].die(exitcode=1)
        service.step()
        assert (live.value(), desired.value(), halted.value()) == (
            1, 2, 1
        )

    def test_halt_is_mirrored_to_status_and_health(self, tmp_path):
        service, spawned = self._service(
            tmp_path, workers=2, max_crashes=1
        )
        status = tmp_path / "cache" / "claims" / "fleet.json"
        service.step()
        spawned[0].die(exitcode=1)
        service.step()
        data = json.loads(status.read_text())
        assert (data["live"], data["desired"], data["halted"]) == (
            1, 2, True
        )
        assert service.health()["fleet"] == {
            "desired": 2, "halted": True, "live": 1, "spawned": 2,
        }
        service.reset_crashes()
        service.step()
        data = json.loads(status.read_text())
        assert (data["live"], data["halted"]) == (2, False)

    def test_every_step_reclaims_vanished_clients_grids(
        self, tmp_path, monkeypatch
    ):
        service, spawned = self._service(tmp_path, max_crashes=1)
        calls = []
        monkeypatch.setattr(
            service.broker, "reap_grids", lambda: calls.append(1) or 0
        )
        service.step()
        spawned[0].die(exitcode=1)
        service.step()
        assert service.halted
        service.step()  # a halted pool still reclaims grid state
        assert len(calls) == 3

    def test_unwritable_status_does_not_fail_the_step(self, tmp_path):
        service, spawned = self._service(tmp_path, workers=2)
        # a file where the claims directory belongs: every status
        # write raises OSError
        claims = tmp_path / "cache" / "claims"
        claims.parent.mkdir(parents=True, exist_ok=True)
        claims.write_text("not a directory")
        assert service.step() == []
        assert service.supervisor.live() == 2
        assert claims.read_text() == "not a directory"

    def test_failed_step_is_reported_and_the_loop_goes_on(
        self, tmp_path, monkeypatch, capsys
    ):
        service, _ = self._service(tmp_path)
        monkeypatch.setattr(service_mod, "STEP_INTERVAL", 0.0)
        calls = []

        def step():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("step boom")
            service._stop.set()

        monkeypatch.setattr(service, "step", step)
        service._run()  # returns once the second step stops it
        assert len(calls) == 2
        assert "RuntimeError: step boom" in capsys.readouterr().err


class TestServiceConstruction:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_an_empty_pool(self, tmp_path, workers):
        with pytest.raises(ConfigurationError, match="at least one"):
            FleetService(
                cache=ResultCache(tmp_path / "cache"), workers=workers
            )

    def test_requires_a_result_cache(self):
        with pytest.raises(ConfigurationError, match="result cache"):
            FleetService(cache=None)


class TestGridClientSubmit:
    def test_submit_frame_carries_only_the_specs(self, monkeypatch):
        """A grid has no weight and its client no quota, so the frame
        names neither, and one ``grid`` reply admits it. No sockets:
        ``_request`` is monkeypatched and the client never connects."""
        from repro.runner import census_job, remote

        client = remote.GridClient.__new__(remote.GridClient)
        client._stream = object()
        sent = []

        def fake_request(stream, message):
            sent.append(message)
            return {"type": "grid", "grid": "g0", "specs": 1, "cached": 0}

        monkeypatch.setattr(remote, "_request", fake_request)
        specs = [census_job("em3d", "tiny")]
        assert client.submit(iter(specs))["grid"] == "g0"
        assert sent == [{"type": "submit", "specs": specs}]
        assert (client.grid, client.specs, client.cached) == ("g0", 1, 0)
