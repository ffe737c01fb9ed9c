"""Two-bit saturating confidence counters (Section 4).

"To estimate confidence for a predicted signature, we simply associate
two-bit saturating counters with each last-touch signature. The two-bit
counters are widely used as an effective mechanism to filter low-accuracy
predictions."

A signature's counter is incremented whenever the signature is confirmed
(the trace completed with an external invalidation matching it, or a
fired self-invalidation was verified correct) and decremented when a
fired self-invalidation proves premature. Prediction is allowed only at
or above ``predict_threshold`` — "not predicted (either due to training
or when the two-bit confidence counter is not saturated)" implies the
threshold is the saturated value.

Retirement of failed signatures: a signature that fires prematurely is
*poisoned* by default — its counter drops to zero and later confirmations
can no longer re-saturate it. A plain inc/dec counter oscillates
(fire -> premature -> relearn -> fire ...) whenever the completed trace's
signature equals the prematurely fired one (e.g. Last-PC on any
multiple-touch instruction), producing misprediction rates far above the
<=3% the paper reports for its confidence-filtered predictors; effective
retirement is the behaviour those numbers imply. Set
``poison_on_premature=False`` to study the plain counter (the ablation
experiments do).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ConfidenceConfig:
    """Counter policy.

    Attributes:
        bits: counter width (paper: 2, so values saturate at 3).
        initial: value a newly learned signature starts at.
        predict_threshold: minimum counter value that permits firing a
            self-invalidation.
    """

    bits: int = 2
    initial: int = 2
    predict_threshold: int = 3
    poison_on_premature: bool = True

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError(f"counter bits must be >= 1: {self.bits}")
        if not 0 <= self.initial <= self.max_value:
            raise ConfigurationError(
                f"initial {self.initial} outside [0, {self.max_value}]"
            )
        if not 0 <= self.predict_threshold <= self.max_value:
            raise ConfigurationError(
                f"threshold {self.predict_threshold} outside "
                f"[0, {self.max_value}]"
            )

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1


class CounterTable:
    """A keyed table of saturating counters.

    Keys are signatures (per-block LTP: per-block tables each hold one of
    these; global LTP: a single shared table).

    ``max_entries`` models a finite hardware structure (Section 3.3
    discusses direct-mapped / set-associative LTP implementations): when
    a new signature would exceed the capacity, the least recently used
    entry is evicted (its poison status goes with it — hardware forgets
    retired signatures too).
    """

    def __init__(
        self,
        config: ConfidenceConfig,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1 or None: {max_entries}"
            )
        self.config = config
        self.max_entries = max_entries
        self._counters: "OrderedDict[Hashable, int]" = OrderedDict()
        self._poisoned: set = set()
        self.evictions = 0
        # hoisted config scalars + LRU switch: `confident` and `learn`
        # run once per access, and recency order is observable only when
        # a capacity bound can evict, so the unbounded (paper) setup
        # skips the bookkeeping entirely
        self._threshold = config.predict_threshold
        self._initial = config.initial
        self._max_value = config.max_value
        self._bounded = max_entries is not None

    def _make_room(self) -> None:
        if self.max_entries is None:
            return
        while len(self._counters) >= self.max_entries:
            victim, _ = self._counters.popitem(last=False)
            self._poisoned.discard(victim)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._counters)

    @property
    def counters(self) -> "OrderedDict[Hashable, int]":
        """The live key -> counter map, read only: a hot caller of an
        unbounded table may inline :meth:`confident` over it."""
        return self._counters

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counters

    def items(self) -> Iterator[Tuple[Hashable, int]]:
        return iter(self._counters.items())

    def confident(self, key: Hashable) -> bool:
        """True when ``key`` is present and at/above the fire threshold."""
        value = self._counters.get(key)
        if value is None:
            return False
        if self._bounded:
            self._counters.move_to_end(key)
        return value >= self._threshold

    def learn(self, key: Hashable) -> None:
        """Confirm ``key``: insert at the initial value or increment.

        Poisoned signatures stay capped below the fire threshold.
        """
        counters = self._counters
        value = counters.get(key)
        if value is None:
            self._make_room()
            counters[key] = self._initial
        else:
            if value < self._max_value:
                counters[key] = value + 1
            if self._bounded:
                counters.move_to_end(key)
        if key in self._poisoned:
            cap = max(0, self._threshold - 1)
            counters[key] = min(counters[key], cap)

    def strengthen(self, key: Hashable) -> None:
        """Positive feedback for a verified-correct prediction."""
        self.learn(key)

    def weaken(self, key: Hashable) -> None:
        """Negative feedback for a premature prediction: decrement, and
        (by default) retire the signature so it cannot re-arm."""
        if self.config.poison_on_premature:
            self._poisoned.add(key)
            if key in self._counters:
                self._counters[key] = 0
            return
        value = self._counters.get(key)
        if value is not None and value > 0:
            self._counters[key] = value - 1

    def is_poisoned(self, key: Hashable) -> bool:
        return key in self._poisoned

    def value(self, key: Hashable) -> int:
        """Current counter value (KeyError if never learned)."""
        return self._counters[key]
