"""Worker process supervision: spawn and reap ``repro worker``s.

The :class:`WorkerSupervisor` owns the local worker pool of one
broker: it forks :func:`repro.runner.remote.run_worker` processes
pointed at the broker's address until ``workers`` are alive, and
notices when they exit (returning :class:`WorkerExit` records the
service's crash breaker counts). A worker killed mid-spec strands
nothing: its heartbeats stop, the lease expires and the spec is
reassigned (see :mod:`repro.runner.remote`).

``spawn`` is injectable so unit tests can supervise fake process
objects without forking anything.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro.telemetry as _tm
from repro.runner.remote import run_worker

#: fleet lifecycle counters, labeled by what happened (spawn / exit)
#: — see docs/observability.md
_M_LIFECYCLE = _tm.counter("repro_fleet_worker_lifecycle_total")

# Workers are respawned from the service's supervision thread while
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
    """One reaped worker: its name and exit code."""

    name: str
    exitcode: Optional[int]

    @property
    def crashed(self) -> bool:
        """True for an abnormal exit (nonzero or signal-killed)."""
        return self.exitcode not in (0, None)


class WorkerSupervisor:
    """Keep a fixed pool of local workers attached to one broker.

    Args:
        address: the broker's ``(host, port)``.
        workers: the pool size :meth:`refill` forks up to.
        batch: specs each worker leases per request.
        trace_root: persistent trace-cache directory for workers.
        name_prefix: worker-name prefix (shows up in broker stats and
            ``/healthz``).
        spawn: ``spawn(name, address) -> process-like`` override; the
            returned object needs ``is_alive()``, ``terminate()``,
            ``join(timeout)``, and ``exitcode``. Defaults to forking a
            real ``run_worker`` process.
        auth_token: shared wire-auth secret forked workers
            authenticate with (protocol v3).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        workers: int = 1,
        batch: int = 1,
        trace_root: Optional[str] = None,
        name_prefix: str = "fleet",
        spawn: Optional[Callable[[str, Tuple[str, int]], object]] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        self.address = tuple(address)
        self.workers = workers
        self.batch = batch
        self.trace_root = trace_root
        self.name_prefix = name_prefix
        self.spawn = spawn or self._spawn_process
        self.auth_token = auth_token
        #: insertion-ordered name -> process
        self._procs: Dict[str, object] = {}
        self._since = _tm.Baseline(_M_LIFECYCLE)

    @property
    def spawned(self) -> int:
        """Workers forked since this supervisor was made."""
        return self._since.count(_M_LIFECYCLE, event="spawn")

    def _next_name(self) -> str:
        """The lowest free worker slot, reused across respawns.

        Names are *slots*, not serial numbers: a worker that crashes
        and is replaced keeps its name (and thus its per-worker
        broker state and metric series), so a crash-looping pool
        cannot grow service bookkeeping without bound.
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
                auth_token=self.auth_token,
            ),
            name=name,
            daemon=True,
        )
        proc.start()
        return proc

    def live(self) -> int:
        """Workers currently alive (without reaping the dead)."""
        return sum(1 for p in self._procs.values() if p.is_alive())

    def names(self) -> List[str]:
        return list(self._procs)

    def reap(self) -> List[WorkerExit]:
        """Remove workers that exited and report how.

        Every exit is unsolicited — the supervisor never stops a
        worker except in :meth:`stop` — so each one counts toward the
        crash breaker.
        """
        exits: List[WorkerExit] = []
        for name, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            proc.join(timeout=0)
            del self._procs[name]
            exits.append(WorkerExit(
                name=name, exitcode=getattr(proc, "exitcode", None)
            ))
            _M_LIFECYCLE.inc(event="exit")
        return exits

    def refill(self) -> int:
        """Fork workers until ``workers`` are alive; returns how many.

        Dead workers are *not* reaped here — only :meth:`reap` removes
        them, so the crash breaker sees every exit. The spawn count is
        fixed up front: re-checking :meth:`live` per fork would loop
        forever when children crash faster than they are forked
        (instant connect failure, bad trace root).
        """
        missing = max(0, self.workers - self.live())
        for _ in range(missing):
            name = self._next_name()
            self._procs[name] = self.spawn(name, self.address)
            _M_LIFECYCLE.inc(event="spawn")
        return missing

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate every worker (service shutdown)."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=timeout)
        self._procs.clear()
