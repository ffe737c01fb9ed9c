"""The DSI self-invalidation policy: bulk trigger at sync boundaries.

Candidates accumulate as the versioning selector flags re-fetched,
actively shared blocks; when the node crosses a triggering
synchronization boundary (by default a lock release or a barrier — the
paper's "exiting a critical section"), every candidate the node still
caches self-invalidates at once. DSI is a heuristic: there is no
confidence mechanism, so repeated premature self-invalidations are not
filtered (the paper measures 14% mispredicted on average).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set

from repro.core.base import SelfInvalidationPolicy
from repro.dsi.versioning import VersioningSelector
from repro.protocol.states import MissKind
from repro.trace.events import SyncKind

DEFAULT_TRIGGERS: FrozenSet[SyncKind] = frozenset(
    {SyncKind.BARRIER, SyncKind.LOCK_RELEASE}
)


class DSIPolicy(SelfInvalidationPolicy):
    """Versioning candidate selection + sync-boundary bulk trigger."""

    name = "dsi"

    def __init__(
        self, triggers: FrozenSet[SyncKind] = DEFAULT_TRIGGERS
    ) -> None:
        self.selector = VersioningSelector()
        self.triggers = triggers
        #: ids of cached blocks currently marked for self-invalidation
        self._candidates: Set[int] = set()
        self.bulk_invalidations = 0

    def bind(self, blocks: Sequence[int]) -> None:
        # a burst leaves in ascending block-number order, and ids are
        # not assigned in that order
        self._block_of = blocks.__getitem__

    def on_access(
        self,
        bid: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> bool:
        if miss_kind is not None:
            if self.selector.observe_fetch(bid, miss_kind, version):
                self._candidates.add(bid)
            elif miss_kind is MissKind.UPGRADE:
                # The migratory read-modify-write exclusion: upgrading a
                # read copy revokes any candidacy from its read fetch
                # (spin locks and RMW data never self-invalidate in DSI).
                self._candidates.discard(bid)
        return False

    def on_invalidation(self, bid: int) -> None:
        # The copy is gone; nothing left to self-invalidate.
        self._candidates.discard(bid)

    def on_sync(self, kind: SyncKind, sync_id: int) -> List[int]:
        if kind not in self.triggers or not self._candidates:
            return []
        burst = sorted(self._candidates, key=self._block_of)
        self._candidates.clear()
        self.bulk_invalidations += len(burst)
        return burst
