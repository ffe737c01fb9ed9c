"""``repro serve``: a persistent broker with a fixed worker pool.

A :class:`FleetService` composes the serve-mode pieces into the
long-running daemon the CLI starts::

    FleetService                  supervision step once a second
    ├── Broker                    lease table + submit/grid frames,
    │                             publishes into the ResultCache
    └── WorkerSupervisor          forks/reaps `run_worker` processes
                                  pointed at the broker's address

The broker stays alive across grids: every ``repro submit`` (or
``RemoteBackend(attach=...)`` run) enqueues its JobSpecs into the live
lease table, and repeat submissions are served straight from the
result cache. :meth:`start` forks ``workers`` local workers, and
:meth:`step` keeps the pool at that size: it reaps workers, refills
after an unsolicited exit, and stops refilling once ``max_crashes``
consecutive crashes latch the crash breaker (so a worker that dies on
startup cannot fork-bomb the host; :meth:`reset_crashes` re-arms it).
Each step also mirrors the pool into ``claims/fleet.json`` under the
cache root and reclaims the grids of vanished clients. External
``repro worker --connect`` fleets can join at any time, exactly as with
``run-all``'s broker.

Shutdown order matters and :meth:`stop` encodes it: halt the
supervision loop, flip the broker's ``closing`` flag so the lease
polls it holds for idle workers tell them to exit, give them a moment
to leave, then terminate stragglers and close the socket.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import repro.telemetry as _tm
from repro._fsutil import atomic_write_bytes
from repro.errors import ConfigurationError
from repro.fleet.supervisor import WorkerExit, WorkerSupervisor
from repro.runner.cache import ResultCache
from repro.runner.remote import DEFAULT_LEASE_TTL, Broker
from repro.workloads import TraceCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.server import MetricsServer

#: subdirectory of the cache root holding the fleet's status mirror
CLAIMS_DIRNAME = "claims"

#: filename of the pool's status mirror, inside CLAIMS_DIRNAME
FLEET_STATUS_NAME = "fleet.json"

#: seconds between supervision steps
STEP_INTERVAL = 1.0

_G_LIVE = _tm.gauge("repro_fleet_live_workers")
_G_DESIRED = _tm.gauge("repro_fleet_desired_workers")
_G_HALTED = _tm.gauge("repro_fleet_halted")


class FleetService:
    """A persistent broker plus a fixed pool of local workers.

    Args:
        cache: the result cache every submitted grid publishes into
            (required — the cache is what makes the service amortize
            work across grids and restarts).
        workers: local worker processes to keep alive (at least 1).
        listen: broker bind address; port 0 picks a free one.
        trace_cache: persistent trace build cache shared with the
            forked workers.
        lease_ttl: worker heartbeat ttl for the lease table.
        batch: specs per worker lease request.
        poll: seconds the broker holds an idle worker's lease poll.
        max_attempts: attempts per spec before permanent failure.
        announce: callback receiving the bound ``host:port`` string.
        auth_token: shared wire-auth secret (protocol v3). ``None``
            keeps the broker open (localhost-trust).
        max_crashes: consecutive crash exits before the pool stops
            refilling (the crash breaker).
        metrics_port: when set, :meth:`start` also binds a plain-HTTP
            observability endpoint on this port (0 picks a free one):
            ``GET /metrics`` serves Prometheus text (broker series
            merged with worker-heartbeat snapshots), ``GET /healthz``
            serves the JSON health document of :meth:`health`. Bound
            to ``metrics_host`` (default loopback) — put a reverse
            proxy in front for anything wider; the endpoint itself is
            unauthenticated.
        metrics_host: bind host for the metrics endpoint.
    """

    def __init__(
        self,
        cache: ResultCache,
        workers: int = 1,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        trace_cache: Optional[TraceCache] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        batch: int = 1,
        poll: float = 0.1,
        max_attempts: int = 3,
        announce: Optional[Callable[[str], None]] = None,
        auth_token: Optional[str] = None,
        max_crashes: int = 5,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
    ) -> None:
        if cache is None:
            raise ConfigurationError(
                "serve mode requires a result cache: submitted grids "
                "publish into it and repeats are served from it"
            )
        if workers < 1:
            raise ConfigurationError(
                f"serve needs at least one worker, got {workers}"
            )
        self.cache = cache
        self.workers = workers
        self.trace_cache = trace_cache
        self.announce = announce
        self.broker = Broker(
            cache=cache,
            lease_ttl=lease_ttl,
            listen=listen,
            poll=poll,
            max_attempts=max_attempts,
            auth_token=auth_token,
        )
        self.batch = batch
        self.auth_token = auth_token
        self.max_crashes = max_crashes
        self.halted = False
        self._crashes = 0
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.metrics_server: Optional[MetricsServer] = None
        self.metrics_address: Optional[Tuple[str, int]] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        self.address: Optional[Tuple[str, int]] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- supervision ---------------------------------------------------

    def step(self) -> List[WorkerExit]:
        """One supervision step (see module doc); returns the exits
        it reaped."""
        exits = self.supervisor.reap()
        for worker_exit in exits:
            if worker_exit.crashed:
                self._crashes += 1
            elif not self.halted:
                # a clean exit re-arms the breaker — unless it has
                # already latched: a latched halt releases only via
                # reset_crashes(), so the HALTED status and the
                # stopped refilling can never disagree
                self._crashes = 0
        if self._crashes >= self.max_crashes:
            self.halted = True
        if not self.halted:
            self.supervisor.refill()
        live = self.supervisor.live()
        _G_LIVE.set(live)
        _G_DESIRED.set(self.workers)
        _G_HALTED.set(1 if self.halted else 0)
        self._write_status(live)
        # vanished clients' grid state must be reclaimed even when no
        # new submission ever arrives to trigger the lazy sweep
        self.broker.reap_grids()
        return exits

    def reset_crashes(self) -> None:
        """Re-arm a halted pool (operator action)."""
        self._crashes = 0
        self.halted = False

    def _write_status(self, live: int) -> None:
        payload = {
            "updated": time.time(),
            "live": live,
            "desired": self.workers,
            "halted": self.halted,
        }
        try:
            atomic_write_bytes(
                self.cache.root / CLAIMS_DIRNAME / FLEET_STATUS_NAME,
                json.dumps(payload).encode("utf-8"),
            )
        except OSError:
            pass  # status is advisory; never fail the supervision loop

    def _run(self) -> None:
        while not self._stop.wait(STEP_INTERVAL):
            try:
                self.step()
            except Exception:
                # a failed step must not kill the loop: report it on
                # the service log and let the next step retry
                traceback.print_exc()

    # -- observability -------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` document: broker health plus the pool the
        broker cannot see — desired vs live workers, the crash-breaker
        state, and how many workers were ever forked."""
        doc = self.broker.health()
        doc["fleet"] = {
            "desired": self.workers,
            "halted": self.halted,
            "live": self.supervisor.live(),
            "spawned": self.supervisor.spawned,
        }
        return doc

    # -- lifecycle -----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind the broker (and the metrics endpoint), fork the pool,
        start the supervision loop.

        Returns the bound address (workers and submitters connect
        here). The metrics endpoint binds before any worker is forked,
        and a failure at any point stops whatever already started
        before the exception propagates — a port conflict leaves no
        socket, thread or worker behind.
        """
        try:
            self.address = self.broker.start()
            self.supervisor = WorkerSupervisor(
                self.address,
                workers=self.workers,
                batch=self.batch,
                trace_root=(
                    str(self.trace_cache.root) if self.trace_cache
                    else None
                ),
                name_prefix="serve",
                auth_token=self.auth_token,
            )
            if self.metrics_port is not None:
                # imported here: http.server pulls in http.client, ssl
                # and email, which no process without an endpoint needs
                from repro.telemetry.server import MetricsServer

                self.metrics_server = MetricsServer(
                    metrics_fn=self.broker.render_metrics,
                    health_fn=self.health,
                    host=self.metrics_host,
                    port=self.metrics_port,
                )
                self.metrics_address = self.metrics_server.start()
            self.step()  # forks the pool and writes the first status
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="fleet-supervisor", daemon=True
            )
            self._thread.start()
            if self.announce is not None:
                host, port = self.address
                self.announce(f"{host}:{port}")
        except BaseException:
            self.stop(drain_timeout=0.0)
            raise
        return self.address

    def serve(
        self,
        max_grids: Optional[int] = None,
        timeout: Optional[float] = None,
        poll: float = 0.2,
    ) -> int:
        """Block until ``max_grids`` grids finished or ``timeout``.

        With both ``None`` this serves until interrupted (the CLI
        catches KeyboardInterrupt around it). Returns the number of
        grids completed during the call.
        """
        start = time.monotonic()
        done_at_start = self.broker.stats.grids_done
        while True:
            done = self.broker.stats.grids_done - done_at_start
            if max_grids is not None and done >= max_grids:
                return done
            if (
                timeout is not None
                and time.monotonic() - start > timeout
            ):
                return done
            time.sleep(poll)

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Shut the service down in order (see module doc)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.broker.begin_shutdown()
        if self.supervisor is not None:
            deadline = time.monotonic() + drain_timeout
            while (
                self.supervisor.live()
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            self.supervisor.stop()
        # the scrape endpoint outlives the wait above so an operator
        # (or the smoke check) can watch /healthz flip to closing and
        # the worker table empty out
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        self.broker.stop()

    def __enter__(self) -> "FleetService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
