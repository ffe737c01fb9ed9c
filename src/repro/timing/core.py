"""The :class:`EngineCore` contract and the engine registry.

Mirrors the ``ExecutionBackend`` pattern from the runner: the timing
engine is pluggable behind a small constructor-plus-``run`` contract,
with a process-global selection that the runner, the pool workers, and
the CLI all share.

Two cores ship:

* ``"reference"`` — :class:`repro.timing.engine.TimingSimulator`, the
  readable per-message-closure implementation and semantics oracle;
* ``"fast"`` — :class:`repro.timing.engine_fast.FastTimingSimulator`,
  flat array-of-struct state over dense block ids and a typed event
  calendar dispatched through one loop.

Both must produce **byte-identical** :class:`~repro.timing.stats.
TimingReport` pickles for any program
(``tests/integration/test_engine_conformance.py`` is the oracle), so
engine choice is deliberately *not* part of
:class:`~repro.runner.spec.JobSpec` identity: cached results are valid
under either core.

Selection precedence: an explicit ``engine=`` argument, then
:func:`select_engine` (which also exports ``REPRO_ENGINE`` so spawned
pool workers inherit the choice), then the ``REPRO_ENGINE`` environment
variable, then :data:`DEFAULT_ENGINE`.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.core.base import SelfInvalidationPolicy
from repro.errors import ConfigurationError
from repro.protocol.states import ProtocolVariant
from repro.timing.config import SystemConfig
from repro.timing.stats import TimingReport
from repro.trace.program import ProgramSet

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

# -- event kinds shared by both cores ----------------------------------
# The fast core's calendar records are (time, seq, kind, a, b, c); the
# reference core tags each scheduled closure with the same kind codes.
# Both count dispatches per kind so ``engine.event_counts`` (the
# ``repro profile`` feed) has identical keys — and identical values,
# since the two cores inline the same operations (immediate si fires,
# post-reply node resumption) instead of scheduling them.
K_RUN = 0  # node resumes executing its program
K_SI_FIRE = 1  # delayed self-invalidation fires
K_DIR_ARRIVE = 2  # message arrives at a directory home
K_DIR_DEQUEUE = 3  # directory pops its serialization queue
K_DIR_COMPLETE = 4  # directory finishes processing a message
K_REPLY = 5  # data reply lands at the requester
K_INVALIDATE = 6  # invalidation lands at a sharer
K_FETCH_INVAL = 7  # owner writeback-invalidate lands
K_FETCH_DOWNGRADE = 8  # owner downgrade lands
K_FORWARD = 9  # predicted-consumer forward lands

EVENT_KIND_NAMES = (
    "run_node",
    "si_fire",
    "dir_arrive",
    "dir_dequeue",
    "dir_complete",
    "reply",
    "invalidate",
    "fetch_inval",
    "fetch_downgrade",
    "forward",
)

#: environment variable carrying the process-global engine selection
#: (read by pool and remote workers on init, exported by select_engine)
ENGINE_ENV = "REPRO_ENGINE"

#: registered core names, reference first
ENGINE_NAMES = ("reference", "fast")

#: the core used when nothing selects one explicitly
DEFAULT_ENGINE = "fast"

_selected: Optional[str] = None


@runtime_checkable
class EngineCore(Protocol):
    """One timing-engine implementation.

    A core is constructed per (workload, policy) run with the same
    signature as the reference ``TimingSimulator`` and must return a
    ``TimingReport`` whose pickle is byte-identical to the reference
    core's for the same inputs.
    """

    core_name: str

    def __init__(
        self,
        policy_factory: PolicyFactory,
        config: Optional[SystemConfig] = None,
        variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
        forwarding: bool = False,
        si_fire_delay: int = 0,
    ) -> None: ...

    def run(self, programs: ProgramSet) -> TimingReport: ...


def engine_class(name: str) -> type:
    """Resolve a core name to its class (imported lazily — the fast
    core never loads in a process that only runs the reference one)."""
    if name == "reference":
        from repro.timing.engine import TimingSimulator

        return TimingSimulator
    if name == "fast":
        from repro.timing.engine_fast import FastTimingSimulator

        return FastTimingSimulator
    raise ConfigurationError(
        f"unknown timing engine {name!r}; choose from {ENGINE_NAMES}"
    )


def select_engine(name: str) -> str:
    """Set the process-global engine and export it to child processes.

    Returns the selected name so callers can log it.
    """
    engine_class(name)  # validate before committing
    global _selected
    _selected = name
    os.environ[ENGINE_ENV] = name
    return name


def selected_engine() -> str:
    """The engine the current process will use by default."""
    if _selected is not None:
        return _selected
    env = os.environ.get(ENGINE_ENV, "").strip()
    if env:
        engine_class(env)  # fail loudly on a typo'd env var
        return env
    return DEFAULT_ENGINE


def make_engine(
    policy_factory: PolicyFactory,
    *,
    config: Optional[SystemConfig] = None,
    variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
    forwarding: bool = False,
    si_fire_delay: int = 0,
    engine: Optional[str] = None,
) -> EngineCore:
    """Construct the selected (or explicitly named) engine core."""
    cls = engine_class(engine if engine is not None else selected_engine())
    return cls(
        policy_factory,
        config=config,
        variant=variant,
        forwarding=forwarding,
        si_fire_delay=si_fire_delay,
    )
