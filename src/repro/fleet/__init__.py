"""The serve service: a persistent broker with a fixed worker pool.

This package keeps the remote broker (:mod:`repro.runner.remote`)
up as a long-running execution service:

* :mod:`repro.fleet.supervisor` — :class:`WorkerSupervisor`, which
  forks and reaps local ``repro worker`` processes;
* :mod:`repro.fleet.service` — :class:`FleetService`, the composed
  ``repro serve`` daemon: persistent broker, ``--jobs N`` supervised
  workers refilled after a crash (behind a crash breaker), and the
  ``claims/fleet.json`` status mirror.

Grid submission rides the v2 wire protocol: see
:class:`repro.runner.remote.GridClient`, ``repro submit``, and
``RemoteBackend(attach=...)``.
"""

from repro.fleet.service import (
    CLAIMS_DIRNAME,
    FLEET_STATUS_NAME,
    FleetService,
)
from repro.fleet.supervisor import WorkerExit, WorkerSupervisor

__all__ = [
    "CLAIMS_DIRNAME",
    "FLEET_STATUS_NAME",
    "FleetService",
    "WorkerExit",
    "WorkerSupervisor",
]
