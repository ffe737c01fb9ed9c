"""Scaling policies: how many workers should the fleet have *now*?

A :class:`ScalingPolicy` is a pure decision function from observed
:class:`FleetSignals` (queue depth, live worker count, fleet
throughput) to a desired worker count, wrapped in the mechanics every
autoscaler needs: a ``[min_workers, max_workers]`` clamp, a
``cooldown`` between changes so the fleet does not thrash on a noisy
signal, and an injectable clock so the whole decision sequence is
unit-testable without sleeping.

Two concrete policies cover the common shapes:

* :class:`QueueDepthPolicy` — size the fleet proportionally to the
  backlog: one worker per ``specs_per_worker`` queued specs. Simple,
  reactive, the default.
* :class:`ThroughputPolicy` — size the fleet to *drain the backlog
  within a target time*, using the observed fleet completion rate
  (jobs/min, from the broker's count of published results) to
  estimate what one worker achieves. Before any throughput has been
  observed it falls back to ``assumed_rate``.

Both converge to ``min_workers`` (0 by default) on an empty queue, so
an idle ``repro serve`` service costs nothing but the broker thread.
Scale-down while the queue is non-empty is allowed: since protocol v3
the supervisor retires workers by *draining* them (the broker stops
granting the worker leases, it finishes its in-flight batch and exits
clean) rather than terminating mid-spec, so shrinking a busy fleet no
longer strands leases until the ttl expires.

The contract, model-checked by ``tests/property/test_fleet_props.py``:
``decide()`` never returns a value outside ``[min_workers,
max_workers]``, never changes the fleet size twice within ``cooldown``
seconds, and — fed an empty queue with time advancing — reaches
``min_workers`` and stays there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError

#: CLI vocabulary for ``repro serve --policy``
POLICY_NAMES = ("queue", "throughput")


@dataclass(frozen=True)
class FleetSignals:
    """One sample of everything a scaling decision may look at."""

    #: specs not yet resolved (pending + leased) on the broker
    queue_depth: int
    #: worker processes currently alive under the supervisor
    live_workers: int
    #: observed fleet completion rate, jobs/min (0.0 = no data yet)
    throughput: float = 0.0


class ScalingPolicy:
    """Clamp + cooldown mechanics around a :meth:`target` heuristic.

    Subclasses implement :meth:`target` (signals -> ideal worker
    count, unclamped); callers use :meth:`decide`, which enforces the
    ``[min_workers, max_workers]`` bounds and refuses to change the
    fleet size again within ``cooldown`` seconds of the last change
    (bounds violations are corrected immediately — a fleet outside
    its limits never waits out a cooldown).
    """

    name = "abstract"

    def __init__(
        self,
        min_workers: int = 0,
        max_workers: int = 4,
        cooldown: float = 10.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if min_workers < 0:
            raise ConfigurationError(
                f"min_workers must be >= 0, got {min_workers}"
            )
        if max_workers < max(1, min_workers):
            raise ConfigurationError(
                f"max_workers must be >= max(1, min_workers), got "
                f"{max_workers} (min_workers={min_workers})"
            )
        if cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {cooldown}"
            )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cooldown = cooldown
        self.clock = clock
        self._last_change: Optional[float] = None
        self._last_desired: Optional[int] = None

    def target(self, signals: FleetSignals) -> int:
        """The heuristic: ideal worker count, bounds not applied."""
        raise NotImplementedError

    def _clamp(self, n: int) -> int:
        return max(self.min_workers, min(self.max_workers, int(n)))

    def decide(self, signals: FleetSignals) -> int:
        """Desired worker count, bounds and cooldown applied.

        The cooldown governs how often the policy *moves its desired
        count* — never how fast the supervisor converges live workers
        onto it. While the desired count is unchanged it is returned
        as-is, so a crashed worker is replaced on the very next tick
        even deep inside a cooldown; only a genuinely new desired
        value waits the cooldown out (the previous desired is held
        meanwhile).

        Shrinking is permitted even while the queue is non-empty:
        the supervisor retires workers by draining them (finish the
        in-flight batch, release, exit) rather than terminating
        mid-spec, so a mid-queue scale-down strands nothing. (Bounds
        violations are corrected immediately, cooldown or not.)
        """
        live = signals.live_workers
        target = self._clamp(self.target(signals))
        previous = self._last_desired
        if previous is None or self._clamp(previous) != previous:
            # first decision, or the bounds were reconfigured under
            # the previous desired: adopt the clamped target now
            self._last_desired = target
            if target != live:
                self._last_change = self.clock()
            return target
        if target == previous:
            return target
        now = self.clock()
        if self._in_cooldown(now):
            return previous
        self._last_change = now
        self._last_desired = target
        return target

    def _in_cooldown(self, now: float) -> bool:
        return (
            self._last_change is not None
            and now - self._last_change < self.cooldown
        )


class QueueDepthPolicy(ScalingPolicy):
    """One worker per ``specs_per_worker`` queued specs.

    The default serve-mode policy: scale up as grids are submitted,
    back down to ``min_workers`` as the queue drains.
    """

    name = "queue"

    def __init__(self, specs_per_worker: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        if specs_per_worker < 1:
            raise ConfigurationError(
                f"specs_per_worker must be >= 1, got {specs_per_worker}"
            )
        self.specs_per_worker = specs_per_worker

    def target(self, signals: FleetSignals) -> int:
        if signals.queue_depth <= 0:
            return 0
        return math.ceil(signals.queue_depth / self.specs_per_worker)


class ThroughputPolicy(ScalingPolicy):
    """Size the fleet to drain the queue within ``drain_target`` secs.

    Per-worker capability is estimated from the observed fleet
    throughput (``signals.throughput`` jobs/min over
    ``signals.live_workers``); with no observation yet — a cold fleet
    has produced no completions — the ``assumed_rate`` (jobs/min per
    worker) seeds the estimate. An empty queue targets zero workers.
    """

    name = "throughput"

    def __init__(
        self,
        drain_target: float = 60.0,
        assumed_rate: float = 6.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if drain_target <= 0:
            raise ConfigurationError(
                f"drain_target must be > 0, got {drain_target}"
            )
        if assumed_rate <= 0:
            raise ConfigurationError(
                f"assumed_rate must be > 0, got {assumed_rate}"
            )
        self.drain_target = drain_target
        self.assumed_rate = assumed_rate

    def target(self, signals: FleetSignals) -> int:
        if signals.queue_depth <= 0:
            return 0
        if signals.live_workers > 0 and signals.throughput > 0:
            per_worker = signals.throughput / signals.live_workers
        else:
            per_worker = self.assumed_rate
        drain_minutes = self.drain_target / 60.0
        return math.ceil(
            signals.queue_depth / max(per_worker * drain_minutes, 1e-9)
        )


def make_policy(name: str, **kwargs) -> ScalingPolicy:
    """CLI factory: ``repro serve --policy {queue,throughput}``.

    Unknown kwargs for the chosen policy are rejected by its
    constructor; kwargs set to ``None`` are dropped so CLI defaults
    fall through to the policy's own.
    """
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    if name == "queue":
        kwargs.pop("drain_target", None)
        kwargs.pop("assumed_rate", None)
        return QueueDepthPolicy(**kwargs)
    if name == "throughput":
        kwargs.pop("specs_per_worker", None)
        return ThroughputPolicy(**kwargs)
    raise ConfigurationError(
        f"unknown scaling policy {name!r}; choose from {POLICY_NAMES}"
    )
