"""Oracle last-touch policy: a perfect-knowledge upper bound (ablation).

Not part of the paper's mechanisms, but the natural ceiling for any
last-touch predictor: fire a self-invalidation at exactly the final
access a node makes to a block before an external invalidation would
remove it.

Because the interleaving scheduler is deterministic and independent of
coherence state, the per-node access streams are identical between a
profiling run and a prediction run; so the oracle is built in two
passes: :func:`repro.sim.functional.compute_last_touch_ordinals`
replays the stream through a coherence engine and records, for each
node, the node-local ordinals of accesses that turned out to be last
touches; :class:`OraclePolicy` then fires at exactly those ordinals.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.base import (
    DECISION_FIRE,
    DECISION_KEEP,
    PolicyDecision,
    SelfInvalidationPolicy,
)
from repro.protocol.states import MissKind


class OraclePolicy(SelfInvalidationPolicy):
    """Fires exactly at profiled last-touch ordinals for one node."""

    name = "oracle"

    def __init__(self, last_touch_ordinals: Set[int]) -> None:
        self._ordinals = last_touch_ordinals
        self._next = 0

    def on_access(
        self,
        block: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> PolicyDecision:
        fire = self._next in self._ordinals
        self._next += 1
        return DECISION_FIRE if fire else DECISION_KEEP
