"""Worker process supervision: spawn, reap, retire ``repro worker``s.

The :class:`WorkerSupervisor` owns the local worker fleet of one
broker: it forks :func:`repro.runner.remote.run_worker` processes
pointed at the broker's address, notices when they exit (returning
:class:`WorkerExit` records the controller folds into its scaling
decisions), and retires the newest workers first when told to scale
down.

Retirement prefers a graceful *drain* (protocol v3): the supervisor
asks the broker to stop granting the victim leases, the worker
finishes its in-flight batch, releases, and exits 0 — no lease is
ever stranded. A worker that does not exit within ``drain_grace``
seconds of being drained is escalated to a ``terminate()``, whose
mid-spec case the lease protocol already covers (heartbeats stop, the
lease expires, the spec is reassigned; see
:mod:`repro.runner.remote`). Scaling down is therefore never able to
lose or duplicate work, only — in the escalation case — to waste one
attempt.

``spawn`` is injectable so unit tests can supervise fake process
objects without forking anything.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro.telemetry as _tm
from repro.runner.remote import run_worker

#: fleet lifecycle counters, labeled by what happened (spawn /
#: drain / terminate / escalate) — see docs/observability.md
_M_LIFECYCLE = _tm.counter("repro_fleet_worker_lifecycle_total")

# Workers are spawned from the controller's background thread while
# the broker's listener/handler threads are live — forking a
# multi-threaded process can hand the child a lock some other thread
# held at fork time (CPython deprecates fork-with-threads for exactly
# this). RemoteBackend sidesteps it by forking *before* serve(); a
# supervisor cannot, so it uses a fork-safe start method instead:
# forkserver (children fork from a clean single-threaded helper)
# where available, spawn otherwise.
try:
    _MP_CONTEXT = multiprocessing.get_context("forkserver")
except ValueError:  # pragma: no cover - platform without forkserver
    _MP_CONTEXT = multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class WorkerExit:
    """One reaped worker: its name, exit code, and when it was seen."""

    name: str
    exitcode: Optional[int]
    when: float

    @property
    def crashed(self) -> bool:
        """True for an abnormal exit (nonzero or signal-killed) that
        the supervisor itself did not cause by retiring the worker."""
        return self.exitcode not in (0, None)


class WorkerSupervisor:
    """Spawn/reap/retire the local worker fleet of one broker.

    Args:
        address: the broker's ``(host, port)``.
        batch: specs each worker leases per request.
        trace_root: persistent trace-cache directory for workers.
        trace_codec: codec workers write local trace entries under.
        name_prefix: worker-name prefix (shows up in broker stats and
            ``cache stats`` throughput lines).
        spawn: ``spawn(name, address) -> process-like`` override; the
            returned object needs ``is_alive()``, ``terminate()``,
            ``join(timeout)``, and ``exitcode``. Defaults to forking a
            real ``run_worker`` process.
        clock: time source for :class:`WorkerExit` stamps.
        drain: ``drain(name) -> bool`` hook (normally
            ``Broker.drain_worker``) asking the broker to retire the
            named worker gracefully. ``None`` (or a hook returning
            False) falls back to ``terminate()``.
        drain_grace: seconds a drained worker may keep running before
            retirement escalates to ``terminate()``.
        auth_token: shared wire-auth secret forked workers
            authenticate with (protocol v3).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        batch: int = 1,
        trace_root: Optional[str] = None,
        trace_codec: str = "none",
        name_prefix: str = "fleet",
        spawn: Optional[Callable[[str, Tuple[str, int]], object]] = None,
        clock: Callable[[], float] = time.time,
        drain: Optional[Callable[[str], bool]] = None,
        drain_grace: float = 30.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.address = tuple(address)
        self.batch = batch
        self.trace_root = trace_root
        self.trace_codec = trace_codec
        self.name_prefix = name_prefix
        self.spawn = spawn or self._spawn_process
        self.clock = clock
        self.drain = drain
        self.drain_grace = max(0.0, float(drain_grace))
        self.auth_token = auth_token
        #: insertion-ordered name -> live process (newest last, which
        #: is the retirement order)
        self._procs: Dict[str, object] = {}
        #: draining worker name -> escalation deadline (clock units)
        self._draining: Dict[str, float] = {}
        self.spawned = 0
        self.retired = 0

    def _next_name(self) -> str:
        """The lowest free worker slot, reused across respawns.

        Names are *slots*, not serial numbers: a fleet that scales
        0->N->0 around every grid would otherwise mint a fresh name
        (and thus fresh per-worker broker state and metric series)
        per spawn, growing service bookkeeping without bound. At most
        ``max_workers`` names exist per service process this way.
        """
        slot = 1
        while f"{self.name_prefix}-{slot}-{os.getpid()}" in self._procs:
            slot += 1
        return f"{self.name_prefix}-{slot}-{os.getpid()}"

    def _spawn_process(self, name: str, address: Tuple[str, int]):
        proc = _MP_CONTEXT.Process(
            target=run_worker,
            kwargs=dict(
                address=address,
                batch=self.batch,
                trace_root=self.trace_root,
                name=name,
                trace_codec=self.trace_codec,
                auth_token=self.auth_token,
            ),
            name=name,
            daemon=True,
        )
        proc.start()
        return proc

    # -- accounting ----------------------------------------------------

    def live(self) -> int:
        """Workers currently alive (without reaping the dead)."""
        return sum(1 for p in self._procs.values() if p.is_alive())

    def pending_retirement(self) -> int:
        """Drained workers still alive (retirement already counted)."""
        return sum(
            1 for name in self._draining
            if name in self._procs and self._procs[name].is_alive()
        )

    def names(self) -> List[str]:
        return list(self._procs)

    def reap(self) -> List[WorkerExit]:
        """Remove workers that exited on their own and report how.

        Retired workers never appear here — :meth:`_retire` removes
        them synchronously, and a worker that exits because we drained
        it is a *solicited* exit, removed silently — so every reported
        exit is unsolicited and its :attr:`WorkerExit.crashed` flag is
        meaningful. Drained workers that outlive their ``drain_grace``
        deadline are escalated to ``terminate()`` here (their
        retirement was already counted when the drain was issued).
        """
        now = self.clock()
        exits: List[WorkerExit] = []
        for name, proc in list(self._procs.items()):
            if proc.is_alive():
                if name in self._draining and now >= self._draining[name]:
                    # drain grace expired: escalate to terminate
                    proc.terminate()
                    proc.join(timeout=5)
                    del self._procs[name]
                    del self._draining[name]
                    _M_LIFECYCLE.inc(event="escalate")
                continue
            proc.join(timeout=0)
            del self._procs[name]
            if name in self._draining:
                # solicited: the drain we issued completed
                del self._draining[name]
                continue
            exits.append(WorkerExit(
                name=name,
                exitcode=getattr(proc, "exitcode", None),
                when=now,
            ))
        return exits

    # -- scaling -------------------------------------------------------

    def scale_to(self, desired: int) -> int:
        """Grow or shrink the fleet to ``desired`` committed workers.

        Returns the signed change actually made. Growth forks fresh
        workers; shrink retires the newest first (oldest workers keep
        their warm ``ProgramSet`` memos), preferring a graceful drain
        via the ``drain`` hook — the worker stays alive until its
        in-flight batch finishes, but counts as retired immediately
        (see :meth:`pending_retirement`). Workers that died on their
        own are *not* reaped here — only :meth:`reap` removes them, so
        the controller always sees every unsolicited exit (the crash
        circuit breaker depends on it).
        """
        desired = max(0, int(desired))
        delta = 0
        # the spawn count is fixed up front: re-checking live() per
        # iteration would fork forever when children crash faster
        # than we spawn (instant connect failure, bad trace root) —
        # arrivals that die are counted by the next reap(), which is
        # what lets the controller's crash breaker latch
        committed = self.live() - self.pending_retirement()
        for _ in range(max(0, desired - committed)):
            name = self._next_name()
            self._procs[name] = self.spawn(name, self.address)
            self.spawned += 1
            _M_LIFECYCLE.inc(event="spawn")
            delta += 1
        while self.live() - self.pending_retirement() > desired:
            name = next(
                (
                    n for n in reversed(list(self._procs))
                    if self._procs[n].is_alive()
                    and n not in self._draining
                ),
                None,
            )
            if name is None:
                # the last retirable worker died between the live()
                # check and this scan; its corpse is reap()'s problem
                break
            self._retire(name)
            delta -= 1
        return delta

    def _retire(self, name: str) -> None:
        """Retire one worker: drain if possible, terminate otherwise."""
        if self.drain is not None and self.drain(name):
            self._draining[name] = self.clock() + self.drain_grace
            self.retired += 1
            _M_LIFECYCLE.inc(event="drain")
            return
        proc = self._procs.pop(name)
        self._draining.pop(name, None)
        proc.terminate()
        proc.join(timeout=5)
        self.retired += 1
        _M_LIFECYCLE.inc(event="terminate")

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate every worker (service shutdown)."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=timeout)
        self._procs.clear()
        self._draining.clear()
