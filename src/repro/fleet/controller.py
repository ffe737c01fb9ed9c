"""The control loop: sample signals, ask the policy, move the fleet.

A :class:`FleetController` ties one :class:`~repro.fleet.supervisor.
WorkerSupervisor` to one :class:`~repro.fleet.policy.ScalingPolicy`.
Each :meth:`tick`:

1. reaps workers that exited on their own — unsolicited nonzero exits
   count toward a crash circuit-breaker (``max_crashes`` consecutive
   crashes latch the controller into a *halted* state that stops
   respawning, so a worker that dies on startup cannot fork-bomb the
   host; a clean exit or :meth:`reset_crashes` re-arms it);
2. samples the scaling signals (queue depth from the broker's lease
   table, fleet jobs/min from the broker's published-result count);
3. asks the policy for the desired worker count and tells the
   supervisor to scale — every change (and every unsolicited exit)
   is appended to :attr:`events`, the scaling-event log;
4. mirrors its state into ``claims/fleet.json`` under the cache root
   (atomic write), which is how ``repro cache stats --watch``
   shows desired-vs-live workers and recent scaling events without
   talking to the service. ``fleet.json`` keeps only the recent tail
   of events; when ``events_path`` is set, every event is *also*
   appended to that JSONL file — the durable log ``repro report``
   draws its scaling timeline from.

Drive ticks manually in tests (everything is injectable, nothing
sleeps) or call :meth:`start` for the background thread the real
service uses.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Deque, List, Optional, Tuple

import repro.telemetry as _tm
from repro._fsutil import atomic_write_bytes
from repro.fleet.policy import FleetSignals, ScalingPolicy
from repro.fleet.supervisor import WorkerSupervisor
from repro.telemetry.sink import RotatingJsonlWriter

#: scaling-event log cap — a long-lived service keeps the recent tail
EVENT_LOG_LIMIT = 256

#: events mirrored into the fleet.json status file
STATUS_EVENTS = 8

#: rotation cap per fleet_events.jsonl segment (events are ~200 bytes;
#: one segment holds ~5k of them, and EVENTS_LOG_BACKUPS more segments
#: are kept, so the on-disk history is bounded however long the
#: service lives — repro report reads the rotated set oldest-first)
EVENTS_LOG_MAX_BYTES = 1024 * 1024
EVENTS_LOG_BACKUPS = 3

_M_EVENTS = _tm.counter("repro_fleet_scaling_events_total")
_G_LIVE = _tm.gauge("repro_fleet_live_workers")
_G_DESIRED = _tm.gauge("repro_fleet_desired_workers")
_G_QUEUE = _tm.gauge("repro_fleet_queue_depth")
_G_THROUGHPUT = _tm.gauge("repro_fleet_throughput_jobs_per_min")
_G_HALTED = _tm.gauge("repro_fleet_halted")


@dataclass(frozen=True)
class ScalingEvent:
    """One entry of the scaling-event log."""

    when: float
    #: "up" | "down" | "exit" | "halt"
    action: str
    live: int
    desired: int
    queue_depth: int
    throughput: float
    reason: str


class FleetController:
    """Periodically resize a supervisor's fleet per a scaling policy.

    Args:
        supervisor: the worker fleet to resize.
        policy: the scaling policy consulted each tick.
        signals: callable returning ``(queue_depth, throughput)``;
            the live worker count is read from the supervisor.
        interval: seconds between background-loop ticks.
        clock: time source for event stamps.
        max_crashes: consecutive unsolicited crash exits before the
            controller halts scaling (the circuit breaker).
        status_path: where to mirror ``fleet.json`` (``None`` = no
            status file).
        events_path: append-only JSONL file receiving every scaling
            event (``None`` = no durable log). Unlike the capped
            in-memory deque and the ``fleet.json`` tail, this log
            keeps the service's whole history for ``repro report``.
    """

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        policy: ScalingPolicy,
        signals: Callable[[], Tuple[int, float]],
        interval: float = 1.0,
        clock: Callable[[], float] = time.time,
        max_crashes: int = 5,
        status_path=None,
        events_path=None,
    ) -> None:
        self.supervisor = supervisor
        self.policy = policy
        self.signals = signals
        self.interval = interval
        self.clock = clock
        self.max_crashes = max_crashes
        self.status_path = (
            Path(status_path) if status_path is not None else None
        )
        self.events_path = (
            Path(events_path) if events_path is not None else None
        )
        self._events_log = (
            RotatingJsonlWriter(
                self.events_path,
                max_bytes=EVENTS_LOG_MAX_BYTES,
                backups=EVENTS_LOG_BACKUPS,
            )
            if self.events_path is not None
            else None
        )
        self.events: Deque[ScalingEvent] = deque(maxlen=EVENT_LOG_LIMIT)
        self.desired = 0
        self.halted = False
        self._crashes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- the control step ----------------------------------------------

    def tick(self) -> List[ScalingEvent]:
        """One control step; returns the events it generated."""
        now = self.clock()
        new_events: List[ScalingEvent] = []
        queue_depth, throughput = self.signals()
        for worker_exit in self.supervisor.reap():
            if worker_exit.crashed:
                self._crashes += 1
            elif not self.halted:
                # a clean exit re-arms the breaker — unless it has
                # already latched: a latched halt releases only via
                # reset_crashes(), so the HALTED status and the
                # stopped scaling can never disagree
                self._crashes = 0
            new_events.append(ScalingEvent(
                when=now,
                action="exit",
                live=self.supervisor.live(),
                desired=self.desired,
                queue_depth=queue_depth,
                throughput=throughput,
                reason=(
                    f"worker {worker_exit.name} exited "
                    f"(code {worker_exit.exitcode})"
                ),
            ))
        live = self.supervisor.live()
        # workers already draining toward retirement are committed to
        # leave: comparing desired against the *committed* size keeps
        # the controller from re-issuing (and re-logging) the same
        # scale-down every tick while a drain completes
        pending = getattr(self.supervisor, "pending_retirement", None)
        committed = live - (pending() if callable(pending) else 0)
        sig = FleetSignals(
            queue_depth=queue_depth,
            live_workers=live,
            throughput=throughput,
        )
        if self._crashes >= self.max_crashes:
            if not self.halted:
                self.halted = True
                new_events.append(ScalingEvent(
                    when=now,
                    action="halt",
                    live=live,
                    desired=self.desired,
                    queue_depth=queue_depth,
                    throughput=throughput,
                    reason=(
                        f"{self._crashes} consecutive worker crashes "
                        "— autoscaling halted (reset_crashes() to "
                        "re-arm; external workers still serve)"
                    ),
                ))
        else:
            desired = self.policy.decide(sig)
            if desired != committed:
                self.supervisor.scale_to(desired)
                new_events.append(ScalingEvent(
                    when=now,
                    action="up" if desired > committed else "down",
                    live=live,
                    desired=desired,
                    queue_depth=queue_depth,
                    throughput=throughput,
                    reason=(
                        f"queue={queue_depth} "
                        f"throughput={throughput:.1f}/min "
                        f"policy={self.policy.name}"
                    ),
                ))
            self.desired = desired
        self.events.extend(new_events)
        self._append_events(new_events)
        for event in new_events:
            _M_EVENTS.inc(action=event.action)
        _G_LIVE.set(self.supervisor.live())
        _G_DESIRED.set(self.desired)
        _G_QUEUE.set(queue_depth)
        _G_THROUGHPUT.set(throughput)
        _G_HALTED.set(1 if self.halted else 0)
        # the mirror shows the post-scale fleet, not the sample that
        # triggered the change
        self._write_status(
            FleetSignals(
                queue_depth=queue_depth,
                live_workers=self.supervisor.live(),
                throughput=throughput,
            ),
            now,
        )
        return new_events

    def reset_crashes(self) -> None:
        """Re-arm a halted controller (operator action)."""
        self._crashes = 0
        self.halted = False

    # -- status mirror -------------------------------------------------

    def _append_events(self, new_events: List[ScalingEvent]) -> None:
        if self._events_log is None or not new_events:
            return
        # size-rotated (path -> path.1 -> ...): a long-lived service
        # cannot grow the log without bound, and the writer swallows
        # I/O errors — the log is advisory, never fails the loop
        self._events_log.write_lines(
            [asdict(event) for event in new_events]
        )

    def _write_status(self, sig: FleetSignals, now: float) -> None:
        if self.status_path is None:
            return
        payload = {
            "updated": now,
            "live": sig.live_workers,
            "desired": self.desired,
            "queue_depth": sig.queue_depth,
            "throughput": sig.throughput,
            "policy": self.policy.name,
            "halted": self.halted,
            "events": [
                asdict(event)
                for event in list(self.events)[-STATUS_EVENTS:]
            ],
        }
        try:
            atomic_write_bytes(
                self.status_path, json.dumps(payload).encode("utf-8")
            )
        except OSError:
            pass  # status is advisory; never fail the control loop

    # -- background loop -----------------------------------------------

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="fleet-controller", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:
                # a failed sample (e.g. broker mid-shutdown) must not
                # kill the control loop; the next tick retries
                continue
