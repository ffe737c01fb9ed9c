"""Full-map, write-invalidate directory coherence protocol (functional).

This package implements the protocol substrate of Section 2 of the
paper: a three-state (Idle / Shared / Exclusive) full-map directory
protocol of the kind used by SGI Origin / Sun WildFire, in the
migratory-favouring variant the paper evaluates (a read to an Exclusive
block invalidates the writer's copy rather than downgrading it).

The functional engine (:class:`~repro.protocol.coherence.CoherenceEngine`)
tracks no time; it resolves each access in global stream order, over
dense block ids, and reports the coherence events (invalidations
delivered, self-invalidation verification outcomes, DSI version numbers)
the predictors and classifiers need. The timing engine
(:mod:`repro.timing.engine`) keeps its own dense-id state and layers
latencies on the same transitions.
"""

from repro.protocol.states import (
    CacheState,
    DirState,
    MissKind,
    ProtocolVariant,
)
from repro.protocol.directory import DirectoryEntry
from repro.protocol.coherence import AccessResult, CoherenceEngine

__all__ = [
    "AccessResult",
    "CacheState",
    "CoherenceEngine",
    "DirectoryEntry",
    "DirState",
    "MissKind",
    "ProtocolVariant",
]
