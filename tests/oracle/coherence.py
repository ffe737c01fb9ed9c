"""Functional write-invalidate coherence engine.

Resolves each memory access in global stream order against the full-map
directory, mutating cache and directory state and reporting every
coherence event of interest to the self-invalidation machinery:

* external invalidations delivered to remote copies (the predictors'
  learning events — each terminates a per-(node, block) trace);
* whether an access was a coherence miss and of which kind (read fetch,
  write fetch, permission upgrade);
* self-invalidation verification outcomes derived from the directory's
  verification mask (Section 4): an access by a *masked* node is a
  **premature** self-invalidation; an access by another node that would
  have invalidated a masked copy in the base protocol verifies that
  self-invalidation **correct**.

The protocol is the migratory-favouring variant the paper evaluates: a
read request to an Exclusive block invalidates (not downgrades) the
writer's copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ProtocolError
from repro.protocol.directory import DirectoryEntry
from repro.protocol.states import (
    CacheState,
    DirState,
    MissKind,
    ProtocolVariant,
)
from repro.trace.events import Invalidation, InvalidationReason
from tests.oracle.cache import NodeCaches
from tests.oracle.directory import Directory

DEFAULT_BLOCK_SHIFT = 5  # 32-byte blocks (Table 1)


@dataclass(slots=True)
class AccessResult:
    """Everything the self-invalidation layer needs to know about one
    resolved access."""

    node: int
    pc: int
    block: int
    is_write: bool
    hit: bool
    miss_kind: Optional[MissKind] = None
    #: True when the block entered this node's cache with this access —
    #: the predictor (re)initializes the block's current signature.
    trace_start: bool = False
    #: External invalidations delivered to other nodes by this access.
    invalidations: List[Invalidation] = field(default_factory=list)
    #: This access re-fetched a block its node had self-invalidated —
    #: that self-invalidation was premature.
    premature: bool = False
    #: Nodes whose earlier self-invalidation of this block is now
    #: verified correct (their copy would have been invalidated here).
    verified_correct: List[int] = field(default_factory=list)
    #: Directory write-version observed at fetch time (DSI versioning).
    version: Optional[int] = None


class CoherenceEngine:
    """Functional full-map write-invalidate protocol over all nodes.

    Args:
        num_nodes: processor count (paper: 32).
        block_shift: log2 of the block size in bytes (paper: 5 -> 32 B).
    """

    def __init__(
        self,
        num_nodes: int,
        block_shift: int = DEFAULT_BLOCK_SHIFT,
        variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
    ) -> None:
        self.num_nodes = num_nodes
        self.block_shift = block_shift
        self.variant = variant
        self.directory = Directory()
        self.caches = NodeCaches(num_nodes)
        #: running count of external invalidations delivered
        self.external_invalidations = 0
        #: running count of self-invalidations performed
        self.self_invalidations = 0
        #: running count of owner downgrades (DOWNGRADE variant only)
        self.downgrades = 0

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------

    def block_of(self, address: int) -> int:
        return address >> self.block_shift

    def access(
        self, node: int, pc: int, address: int, is_write: bool
    ) -> AccessResult:
        """Resolve one access; mutate state; report coherence events."""
        block = self.block_of(address)
        ent = self.directory.entry(block)
        res = AccessResult(node, pc, block, is_write, hit=False)

        self._resolve_mask(node, ent, is_write, res)

        cached = self.caches.lookup(node, block)
        if cached is CacheState.EXCLUSIVE or (
            cached is CacheState.SHARED and not is_write
        ):
            res.hit = True
            return res

        # Coherence miss.
        if cached is CacheState.SHARED:  # write to a read-only copy
            res.miss_kind = MissKind.UPGRADE
        elif is_write:
            res.miss_kind = MissKind.WRITE_FETCH
        else:
            res.miss_kind = MissKind.READ_FETCH
        res.trace_start = cached is None
        res.version = ent.version

        if is_write:
            self._invalidate_others(node, block, ent, res)
            ent.state = DirState.EXCLUSIVE
            ent.owner = node
            ent.sharers.clear()
            ent.version += 1
            self.caches.install(node, block, CacheState.EXCLUSIVE)
        else:
            if ent.state is DirState.EXCLUSIVE:
                if self.variant is ProtocolVariant.INVALIDATE:
                    # Migratory-favouring: invalidate the writer.
                    self._invalidate_others(node, block, ent, res)
                    ent.owner = None
                else:
                    # Producer-consumer-favouring: the writer writes
                    # back and keeps a read-only copy; its trace
                    # continues (no invalidation event).
                    owner = ent.owner
                    if owner is None:
                        raise ProtocolError(
                            f"EXCLUSIVE block {block:#x} w/o owner"
                        )
                    self.caches.install(owner, block, CacheState.SHARED)
                    ent.sharers.add(owner)
                    ent.owner = None
                    self.downgrades += 1
            ent.state = DirState.SHARED
            ent.sharers.add(node)
            self.caches.install(node, block, CacheState.SHARED)
        return res

    def self_invalidate(self, node: int, block: int) -> None:
        """Write the node's copy back and drop it (speculative SI).

        Records the node in the block's verification mask so a later
        request can classify the self-invalidation correct or premature.
        """
        ent = self.directory.entry(block)
        cached = self.caches.lookup(node, block)
        if cached is None:
            raise ProtocolError(
                f"node {node} self-invalidating uncached block {block:#x}"
            )
        self.caches.evict(node, block)
        ent.verification_mask[node] = cached
        if cached is CacheState.EXCLUSIVE:
            if ent.owner != node:
                raise ProtocolError(
                    f"cache/directory owner mismatch on block {block:#x}"
                )
            ent.owner = None
            ent.state = DirState.IDLE
        else:
            ent.sharers.discard(node)
            if not ent.sharers:
                ent.state = DirState.IDLE
        self.self_invalidations += 1

    def holds(self, node: int, block: int) -> bool:
        return self.caches.lookup(node, block) is not None

    def unresolved_self_invalidations(self) -> int:
        """Self-invalidations never verified by the end of the run.

        In the base system these copies would simply have stayed cached
        (no invalidation), so they belong to no Figure-6 category.
        """
        return sum(
            len(e.verification_mask)
            for e in self.directory._entries.values()
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _resolve_mask(
        self,
        node: int,
        ent: DirectoryEntry,
        is_write: bool,
        res: AccessResult,
    ) -> None:
        """Apply Section-4 verification for this access.

        Premature: the requester itself is masked (it self-invalidated
        and now wants the block back) — only meaningful when the access
        actually needs the directory, which is always true since a
        masked node by definition no longer caches the block.

        Correct: any *other* masked node whose dropped copy the base
        protocol would have invalidated on this access:
        a masked EXCLUSIVE copy is invalidated by any remote access;
        masked SHARED copies are invalidated by a remote write.
        """
        mask = ent.verification_mask
        if not mask:
            return
        if node in mask:
            del mask[node]
            res.premature = True
        if not mask:
            return
        confirmed: List[int] = []
        for other, held in mask.items():
            if held is CacheState.EXCLUSIVE or is_write:
                confirmed.append(other)
        for other in confirmed:
            del mask[other]
        res.verified_correct.extend(confirmed)

    def _invalidate_others(
        self,
        node: int,
        block: int,
        ent: DirectoryEntry,
        res: AccessResult,
    ) -> None:
        """Deliver external invalidations to every other copy-holder."""
        if ent.state is DirState.EXCLUSIVE:
            victim = ent.owner
            if victim is None:
                raise ProtocolError(f"EXCLUSIVE block {block:#x} w/o owner")
            if victim != node:
                self.caches.evict(victim, block)
                res.invalidations.append(
                    Invalidation(
                        victim, block, InvalidationReason.EXTERNAL, node
                    )
                )
                self.external_invalidations += 1
            ent.owner = None
        elif ent.state is DirState.SHARED:
            for victim in sorted(ent.sharers):
                if victim == node:
                    continue
                self.caches.evict(victim, block)
                res.invalidations.append(
                    Invalidation(
                        victim, block, InvalidationReason.EXTERNAL, node
                    )
                )
                self.external_invalidations += 1
            ent.sharers.clear()
