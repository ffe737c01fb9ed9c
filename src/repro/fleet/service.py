"""``repro serve``: the persistent, self-sizing execution service.

A :class:`FleetService` composes the serve-mode pieces into the
long-running daemon the CLI starts::

    FleetService
    ├── Broker                    lease table + submit/grid frames,
    │                             publishes into the ResultCache
    ├── WorkerSupervisor          forks/retires `run_worker` processes
    │                             pointed at the broker's address
    └── FleetController           queue-depth / throughput autoscaling,
                                  scaling-event log, fleet.json mirror

The broker stays alive across grids: every ``repro submit`` (or
``RemoteBackend(attach=...)`` run) enqueues its JobSpecs into the live
lease table, repeat submissions are served straight from the result
cache, and the controller scales the local worker fleet up from
``min_workers`` (default 0 — an idle service runs no workers) as
queues form and back down as they drain. External ``repro worker
--connect`` fleets can join at any time, exactly as with ``run-all``'s
broker.

Shutdown order matters and :meth:`stop` encodes it: halt the control
loop, flip the broker's ``closing`` flag so idle workers' next lease
poll tells them to exit, give them a moment to drain, then terminate
stragglers and close the socket.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from collections import deque
from typing import Deque

from repro.errors import ConfigurationError
from repro.fleet.controller import FleetController
from repro.fleet.policy import QueueDepthPolicy, ScalingPolicy
from repro.fleet.supervisor import WorkerSupervisor
from repro.runner.cache import ResultCache
from repro.runner.remote import DEFAULT_LEASE_TTL, Broker
from repro.telemetry import MetricsServer
from repro.workloads import TraceCache

#: subdirectory of the cache root holding the fleet's status mirror
#: and scaling-event log
CLAIMS_DIRNAME = "claims"

#: filename of the controller's status mirror, inside CLAIMS_DIRNAME
FLEET_STATUS_NAME = "fleet.json"

#: filename of the durable scaling-event log, inside CLAIMS_DIRNAME
FLEET_EVENTS_NAME = "fleet_events.jsonl"


class ThroughputWindow:
    """Windowed fleet completion rate from a cumulative result count.

    A lifetime *average* dilutes toward zero on a service that has
    been up for days — the scaling signal must reflect what the fleet
    does *now*. This tracker samples the broker's cumulative count of
    first publications each observation and reports the delta over a
    sliding ``window`` as jobs/min.
    """

    def __init__(self, window: float = 120.0) -> None:
        self.window = window
        self._samples: Deque = deque()  # (when, cumulative total)

    def observe(self, total: int, now: float) -> float:
        """Record one sample, return the current jobs/min rate."""
        self._samples.append((now, total))
        cutoff = now - self.window
        while len(self._samples) > 1 and self._samples[0][0] < cutoff:
            self._samples.popleft()
        first_t, first_total = self._samples[0]
        elapsed = now - first_t
        if elapsed <= 0:
            return 0.0
        return (total - first_total) * 60.0 / elapsed


class FleetService:
    """A persistent broker plus an autoscaled local worker fleet.

    Args:
        cache: the result cache every submitted grid publishes into
            (required — the cache is what makes the service amortize
            work across grids and restarts).
        listen: broker bind address; port 0 picks a free one.
        trace_cache: persistent trace build cache shared with the
            forked workers.
        policy: scaling policy; default ``QueueDepthPolicy()``.
        lease_ttl: worker heartbeat ttl for the lease table.
        batch: specs per worker lease request.
        poll: idle-worker wait between lease polls.
        max_attempts: attempts per spec before permanent failure.
        codec: wire/cache codec name.
        ship_traces: broker-side trace builds + wire shipping.
        scale_interval: seconds between controller ticks.
        throughput_window: how far back published results count
            toward the throughput signal.
        announce: callback receiving the bound ``host:port`` string.
        auth_token: shared wire-auth secret (protocol v3). ``None``
            keeps the broker open (localhost-trust).
        max_pending_per_client: outstanding-spec quota per submit
            client; over-quota submissions get a ``busy`` retry-after
            reply. ``None`` = unlimited.
        drain_grace: seconds a drained worker may run before the
            supervisor escalates to terminate; default
            ``max(lease_ttl, 5.0)``.
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
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        trace_cache: Optional[TraceCache] = None,
        policy: Optional[ScalingPolicy] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        batch: int = 1,
        poll: float = 0.1,
        max_attempts: int = 3,
        codec: str = "none",
        ship_traces: bool = False,
        scale_interval: float = 1.0,
        throughput_window: float = 120.0,
        announce: Optional[Callable[[str], None]] = None,
        auth_token: Optional[str] = None,
        max_pending_per_client: Optional[int] = None,
        drain_grace: Optional[float] = None,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
    ) -> None:
        if cache is None:
            raise ConfigurationError(
                "serve mode requires a result cache: submitted grids "
                "publish into it and repeats are served from it"
            )
        self.cache = cache
        self.trace_cache = trace_cache
        self.policy = policy or QueueDepthPolicy()
        self.throughput_window = throughput_window
        self._throughput = ThroughputWindow(window=throughput_window)
        self.scale_interval = scale_interval
        self.announce = announce
        self.broker = Broker(
            cache=cache,
            lease_ttl=lease_ttl,
            listen=listen,
            poll=poll,
            max_attempts=max_attempts,
            codec=codec,
            ship_traces=ship_traces,
            trace_cache=trace_cache,
            auth_token=auth_token,
            max_pending_per_client=max_pending_per_client,
        )
        self.batch = batch
        self.codec = codec
        self.auth_token = auth_token
        self.drain_grace = (
            max(lease_ttl, 5.0) if drain_grace is None
            else max(0.0, float(drain_grace))
        )
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.metrics_server: Optional[MetricsServer] = None
        self.metrics_address: Optional[Tuple[str, int]] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        self.controller: Optional[FleetController] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- signals -------------------------------------------------------

    def _signals(self) -> Tuple[int, float]:
        # piggyback housekeeping on the control loop: vanished
        # clients' grid state must be reclaimed even when no new
        # submission ever arrives to trigger the lazy sweep
        self.broker.reap_grids()
        # the broker counts every first publication in memory, so the
        # signal needs no disk reads and survives REPRO_TELEMETRY=off
        return (
            self.broker.queue_depth(),
            self._throughput.observe(
                self.broker.stats.results, time.time()
            ),
        )

    # -- observability -------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` document: broker health plus the fleet
        layer the broker cannot see — desired-vs-live workers, the
        crash-breaker state, and supervisor lifetime totals."""
        doc = self.broker.health()
        fleet = {
            "policy": self.policy.name,
            "desired": (
                self.controller.desired if self.controller else 0
            ),
            "halted": (
                self.controller.halted if self.controller else False
            ),
        }
        if self.supervisor is not None:
            fleet.update(
                live=self.supervisor.live(),
                draining=self.supervisor.pending_retirement(),
                spawned=self.supervisor.spawned,
                retired=self.supervisor.retired,
            )
        doc["fleet"] = fleet
        return doc

    # -- lifecycle -----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind + serve the broker, start the autoscaling loop.

        Returns the bound address (workers and submitters connect
        here).
        """
        self.address = self.broker.start()
        host, port = self.address
        if self.announce is not None:
            self.announce(f"{host}:{port}")
        self.supervisor = WorkerSupervisor(
            self.address,
            batch=self.batch,
            trace_root=(
                str(self.trace_cache.root) if self.trace_cache else None
            ),
            trace_codec=self.codec,
            name_prefix="serve",
            drain=self.broker.drain_worker,
            drain_grace=self.drain_grace,
            auth_token=self.auth_token,
        )
        self.controller = FleetController(
            self.supervisor,
            self.policy,
            signals=self._signals,
            interval=self.scale_interval,
            status_path=(
                self.cache.root / CLAIMS_DIRNAME / FLEET_STATUS_NAME
            ),
            events_path=(
                self.cache.root / CLAIMS_DIRNAME / FLEET_EVENTS_NAME
            ),
        )
        self.controller.start()
        if self.metrics_port is not None:
            # bind after the broker so a metrics-port conflict fails
            # the whole startup before any worker is forked; the
            # OSError propagates with the colliding port in its text
            self.metrics_server = MetricsServer(
                metrics_fn=self.broker.render_metrics,
                health_fn=self.health,
                host=self.metrics_host,
                port=self.metrics_port,
            )
            self.metrics_address = self.metrics_server.start()
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
        """Shut the service down in drain order (see module doc)."""
        if self.controller is not None:
            self.controller.stop()
        self.broker.begin_shutdown()
        if self.supervisor is not None:
            deadline = time.monotonic() + drain_timeout
            while (
                self.supervisor.live()
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            self.supervisor.stop()
        # the scrape endpoint outlives the drain window above so an
        # operator (or the smoke check) can watch /healthz flip to
        # closing and the worker table empty out
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        self.broker.stop()

    def __enter__(self) -> "FleetService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
