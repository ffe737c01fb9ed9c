"""Elastic fleet orchestration: autoscaling and the serve service.

This package turns the per-grid remote broker
(:mod:`repro.runner.remote`) into a long-running, self-sizing
execution service:

* :mod:`repro.fleet.policy` — :class:`ScalingPolicy` and the
  queue-depth / throughput implementations (min/max workers,
  cooldown, injectable clock);
* :mod:`repro.fleet.supervisor` — :class:`WorkerSupervisor`, which
  spawns, reaps, and retires local ``repro worker`` processes;
* :mod:`repro.fleet.controller` — :class:`FleetController`, the
  control loop with its scaling-event log
  (``claims/fleet_events.jsonl``), crash circuit breaker, and
  ``claims/fleet.json`` status mirror;
* :mod:`repro.fleet.service` — :class:`FleetService`, the composed
  ``repro serve`` daemon (persistent broker + supervised fleet).

Grid submission rides the v2 wire protocol: see
:class:`repro.runner.remote.GridClient`, ``repro submit``, and
``RemoteBackend(attach=...)``.
"""

from repro.fleet.controller import (
    EVENT_LOG_LIMIT,
    FleetController,
    ScalingEvent,
)
from repro.fleet.policy import (
    POLICY_NAMES,
    FleetSignals,
    QueueDepthPolicy,
    ScalingPolicy,
    ThroughputPolicy,
    make_policy,
)
from repro.fleet.service import (
    CLAIMS_DIRNAME,
    FLEET_EVENTS_NAME,
    FLEET_STATUS_NAME,
    FleetService,
    ThroughputWindow,
)
from repro.fleet.supervisor import WorkerExit, WorkerSupervisor

__all__ = [
    "CLAIMS_DIRNAME",
    "EVENT_LOG_LIMIT",
    "FLEET_EVENTS_NAME",
    "FLEET_STATUS_NAME",
    "FleetController",
    "FleetService",
    "FleetSignals",
    "POLICY_NAMES",
    "QueueDepthPolicy",
    "ScalingEvent",
    "ScalingPolicy",
    "ThroughputPolicy",
    "ThroughputWindow",
    "WorkerExit",
    "WorkerSupervisor",
    "make_policy",
]
