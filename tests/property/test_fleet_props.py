"""Property-based model check of the fixed pool's supervision step.

Random schedules of worker exits (and operator re-arms) drive
``FleetService.step`` over a real :class:`WorkerSupervisor` whose
processes are fakes, so nothing forks or binds. The properties:

* ``halted`` follows a model of the crash breaker fed the exits each
  step reports: it latches once ``max_crashes`` consecutive crashes
  were reaped, a clean exit re-arms only an un-latched breaker, and
  only ``reset_crashes`` releases a latched one;
* the pool never holds more than ``workers`` live workers, holds
  exactly ``workers`` after every step that ends un-halted, and forks
  nothing in a step that ends halted;
* every forked worker is either live or reported by exactly one step,
  and the reported exits are exactly the injected ones;
* worker names stay within the pool's ``workers`` slots;
* ``claims/fleet.json`` and ``health()["fleet"]`` mirror the pool.
"""

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetService, WorkerSupervisor
from repro.runner import ResultCache


class FakeProc:
    def __init__(self):
        self.alive = True
        self.exitcode = None

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.alive = False

    def join(self, timeout=None):
        pass


#: per step: exits for some live workers — (pick index, exit code) —
#: and whether the operator calls reset_crashes() before the step
schedules = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from([0, 1, -9, -15]),
            ),
            max_size=4,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=25,
)

pools = dict(
    workers=st.integers(min_value=1, max_value=4),
    max_crashes=st.integers(min_value=1, max_value=4),
    schedule=schedules,
)


def _drive(workers, max_crashes, schedule):
    """Run ``schedule`` against a fresh service; returns one record
    per step (the first is the step :meth:`FleetService.start` runs)
    plus every injected exit and every forked worker name."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        service = FleetService(
            cache=cache, workers=workers, max_crashes=max_crashes
        )
        current = {}  # slot name -> the process now filling it
        forked = []

        def spawn(name, address):
            current[name] = FakeProc()
            forked.append(name)
            return current[name]

        service.supervisor = WorkerSupervisor(
            ("127.0.0.1", 1),
            workers=workers,
            name_prefix="serve",
            spawn=spawn,
        )
        status_path = cache.root / "claims" / "fleet.json"
        injected, records = [], []
        for kills, reset in [([], False)] + list(schedule):
            live_names = [n for n, p in current.items() if p.alive]
            for index, code in kills:
                if not live_names:
                    break
                name = live_names.pop(index % len(live_names))
                current[name].alive = False
                current[name].exitcode = code
                injected.append((name, code))
            if reset:
                service.reset_crashes()
            exits = service.step()
            records.append(dict(
                reset=reset,
                exits=exits,
                halted=service.halted,
                live=service.supervisor.live(),
                spawned=service.supervisor.spawned,
                status=json.loads(status_path.read_text()),
                health=service.health()["fleet"],
            ))
        return records, injected, forked


@settings(max_examples=60, deadline=None)
@given(**pools)
def test_breaker_latches_as_modelled(workers, max_crashes, schedule):
    records, _, _ = _drive(workers, max_crashes, schedule)
    crashes, halted = 0, False
    for record in records:
        if record["reset"]:
            crashes, halted = 0, False
        for worker_exit in record["exits"]:
            if worker_exit.crashed:
                crashes += 1
            elif not halted:
                crashes = 0
        halted = halted or crashes >= max_crashes
        assert record["halted"] is halted


@settings(max_examples=60, deadline=None)
@given(**pools)
def test_pool_is_refilled_exactly_while_armed(
    workers, max_crashes, schedule
):
    records, _, _ = _drive(workers, max_crashes, schedule)
    spawned = 0
    for record in records:
        assert record["live"] <= workers
        if record["halted"]:
            # a step that ends halted forks nothing
            assert record["spawned"] == spawned
        else:
            assert record["live"] == workers
        spawned = record["spawned"]


@settings(max_examples=60, deadline=None)
@given(**pools)
def test_every_fork_is_live_or_reaped_once(
    workers, max_crashes, schedule
):
    records, injected, forked = _drive(workers, max_crashes, schedule)
    reported = []
    for record in records:
        reported.extend((e.name, e.exitcode) for e in record["exits"])
        assert record["spawned"] == record["live"] + len(reported)
    assert sorted(reported) == sorted(injected)
    assert records[-1]["spawned"] == len(forked)


@settings(max_examples=60, deadline=None)
@given(**pools)
def test_names_stay_within_the_slots(workers, max_crashes, schedule):
    _, _, forked = _drive(workers, max_crashes, schedule)
    slots = {f"serve-{n}-{os.getpid()}" for n in range(1, workers + 1)}
    assert set(forked) <= slots


@settings(max_examples=60, deadline=None)
@given(**pools)
def test_status_and_health_mirror_the_pool(
    workers, max_crashes, schedule
):
    records, _, _ = _drive(workers, max_crashes, schedule)
    for record in records:
        status = dict(record["status"])
        assert isinstance(status.pop("updated"), float)
        assert status == {
            "live": record["live"],
            "desired": workers,
            "halted": record["halted"],
        }
        assert record["health"] == {
            "desired": workers,
            "halted": record["halted"],
            "live": record["live"],
            "spawned": record["spawned"],
        }
