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

State is kept over *dense block ids* (``0..len(blocks)-1``, in the order
blocks were interned): one ``bytearray`` of cache-state codes per node,
and per-block lists for the directory's owner, sharer bitmask, write
version and verification mask. A block's directory state follows from
them: Exclusive when it has an owner, Shared when it has sharers, Idle
otherwise. The accuracy simulator drives the dense-id API
(:meth:`CoherenceEngine.miss`, :meth:`CoherenceEngine.self_invalidate_id`,
and a plain-hit test on :attr:`CoherenceEngine.states` inlined in its
loop);
:meth:`CoherenceEngine.access`, :meth:`CoherenceEngine.self_invalidate`
and :meth:`CoherenceEngine.holds` take byte addresses / block numbers,
intern them and call the dense-id API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ProtocolError
from repro.protocol.directory import DirectoryEntry
from repro.protocol.states import (
    CacheState,
    DirState,
    MissKind,
    ProtocolVariant,
)
from repro.trace.events import Invalidation, InvalidationReason

DEFAULT_BLOCK_SHIFT = 5  # 32-byte blocks (Table 1)

#: cache-state codes in :attr:`CoherenceEngine.states`, ordered so that
#: an access is a plain hit exactly when ``code > is_write``
NOT_CACHED, SHARED, EXCLUSIVE = 0, 1, 2

#: code -> the :class:`CacheState` it stands for
_STATE_OF = (None, CacheState.SHARED, CacheState.EXCLUSIVE)

#: (premature, verified-correct nodes, invalidated nodes, miss kind,
#: version) — what :meth:`CoherenceEngine.miss` reports
MissOutcome = Tuple[bool, Tuple[int, ...], Tuple[int, ...], MissKind, int]


@dataclass(slots=True)
class AccessResult:
    """Everything the self-invalidation layer needs to know about one
    resolved access (the address-level :meth:`CoherenceEngine.access`
    view)."""

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
        variant: how a read treats an Exclusive owner.
        blocks: block numbers to intern up front, in dense-id order (a
            compiled stream's block table).
    """

    def __init__(
        self,
        num_nodes: int,
        block_shift: int = DEFAULT_BLOCK_SHIFT,
        variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
        blocks: Iterable[int] = (),
    ) -> None:
        if num_nodes < 1:
            raise ProtocolError(f"need at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.block_shift = block_shift
        self.variant = variant
        self._downgrade = variant is ProtocolVariant.DOWNGRADE
        #: dense id -> block number
        self.blocks: List[int] = list(blocks)
        #: block number -> dense id
        self.ids: Dict[int, int] = {b: i for i, b in enumerate(self.blocks)}
        count = len(self.blocks)
        #: node -> cache-state code of every dense id
        self.states: List[bytearray] = [
            bytearray(count) for _ in range(num_nodes)
        ]
        #: dense id -> Exclusive owner, -1 when none
        self._owner: List[int] = [-1] * count
        #: dense id -> bitmask of nodes holding read-only copies
        self._sharers: List[int] = [0] * count
        #: dense id -> write version (bumped per exclusive grant)
        self._version: List[int] = [0] * count
        #: dense id -> {node: cache-state code it self-invalidated
        #: from}, in insertion order; None until first used
        self._mask: List[Optional[Dict[int, int]]] = [None] * count
        #: running count of external invalidations delivered
        self.external_invalidations = 0
        #: running count of self-invalidations performed
        self.self_invalidations = 0
        #: running count of owner downgrades (DOWNGRADE variant only)
        self.downgrades = 0

    # ------------------------------------------------------------------
    # dense-id API (the accuracy simulator's hot path)
    # ------------------------------------------------------------------

    def miss(self, node: int, bid: int, is_write: int) -> MissOutcome:
        """Resolve an access by ``node`` to dense block ``bid`` that is
        not a plain hit (``states[node][bid] <= is_write``).

        Returns whether the requester's own self-invalidation was
        premature, the nodes whose self-invalidations this access
        verifies correct (verification-mask order), the nodes whose
        copies it invalidates (ascending), the miss kind, and the
        directory write version seen at fetch time.
        """
        premature = False
        verified: Tuple[int, ...] = ()
        mask = self._mask[bid]
        if mask:
            # Section-4 verification. Plain hits never need it: a hit's
            # requester caches the block, so it is not masked; a masked
            # Exclusive copy was the only copy, so whoever holds the
            # block now fetched it and resolved that entry; masked
            # Shared copies resolve only on a write, and a write hit
            # follows an Exclusive fetch that already cleared the mask.
            if node in mask:
                del mask[node]
                premature = True
            if mask:
                if is_write:
                    verified = tuple(mask)
                    mask.clear()
                else:
                    verified = tuple(
                        other for other, held in mask.items()
                        if held == EXCLUSIVE
                    )
                    for other in verified:
                        del mask[other]

        states = self.states
        held = states[node][bid]
        version = self._version[bid]
        owner = self._owner[bid]
        victims: Tuple[int, ...] = ()
        if is_write:
            kind = MissKind.UPGRADE if held else MissKind.WRITE_FETCH
            if owner >= 0:
                if owner != node:
                    states[owner][bid] = NOT_CACHED
                    victims = (owner,)
            else:
                others = self._sharers[bid] & ~(1 << node)
                if others:
                    victims = _nodes_of(others)
                    for victim in victims:
                        states[victim][bid] = NOT_CACHED
            self.external_invalidations += len(victims)
            self._owner[bid] = node
            self._sharers[bid] = 0
            self._version[bid] = version + 1
            states[node][bid] = EXCLUSIVE
        else:
            kind = MissKind.READ_FETCH
            sharers = self._sharers[bid]
            if owner >= 0:
                if self._downgrade:
                    # Producer-consumer-favouring: the writer writes
                    # back and keeps a read-only copy; its trace
                    # continues (no invalidation event).
                    states[owner][bid] = SHARED
                    sharers |= 1 << owner
                    self.downgrades += 1
                elif owner != node:
                    # Migratory-favouring: invalidate the writer.
                    states[owner][bid] = NOT_CACHED
                    victims = (owner,)
                    self.external_invalidations += 1
                self._owner[bid] = -1
            self._sharers[bid] = sharers | (1 << node)
            states[node][bid] = SHARED
        return premature, verified, victims, kind, version

    def self_invalidate_id(self, node: int, bid: int) -> None:
        """Write the node's copy of dense block ``bid`` back and drop it
        (speculative SI), entering the node in the verification mask so
        a later request can classify it correct or premature."""
        held = self.states[node][bid]
        if not held:
            raise ProtocolError(
                f"node {node} self-invalidating uncached block "
                f"{self.blocks[bid]:#x}"
            )
        self.states[node][bid] = NOT_CACHED
        mask = self._mask[bid]
        if mask is None:
            mask = self._mask[bid] = {}
        mask[node] = held
        if held == EXCLUSIVE:
            if self._owner[bid] != node:
                raise ProtocolError(
                    f"cache/directory owner mismatch on block "
                    f"{self.blocks[bid]:#x}"
                )
            self._owner[bid] = -1
        else:
            self._sharers[bid] &= ~(1 << node)
        self.self_invalidations += 1

    def intern(self, block: int) -> int:
        """The dense id of ``block``, allocating one on first sight."""
        bid = self.ids.get(block)
        if bid is None:
            bid = self.ids[block] = len(self.blocks)
            self.blocks.append(block)
            for states in self.states:
                states.append(NOT_CACHED)
            self._owner.append(-1)
            self._sharers.append(0)
            self._version.append(0)
            self._mask.append(None)
        return bid

    # ------------------------------------------------------------------
    # address-level API
    # ------------------------------------------------------------------

    def block_of(self, address: int) -> int:
        return address >> self.block_shift

    def access(
        self, node: int, pc: int, address: int, is_write: bool
    ) -> AccessResult:
        """Resolve one access; mutate state; report coherence events."""
        if not 0 <= node < self.num_nodes:
            raise ProtocolError(
                f"access by node {node} outside 0..{self.num_nodes - 1}"
            )
        block = self.block_of(address)
        bid = self.intern(block)
        res = AccessResult(node, pc, block, is_write, hit=False)
        write = 1 if is_write else 0
        if self.states[node][bid] > write:
            res.hit = True
            return res
        premature, verified, victims, kind, version = self.miss(
            node, bid, write
        )
        res.premature = premature
        res.verified_correct = list(verified)
        res.invalidations = [
            Invalidation(victim, block, InvalidationReason.EXTERNAL, node)
            for victim in victims
        ]
        res.miss_kind = kind
        res.trace_start = kind is not MissKind.UPGRADE
        res.version = version
        return res

    def self_invalidate(self, node: int, block: int) -> None:
        """Address-level :meth:`self_invalidate_id`."""
        bid = self.ids.get(block)
        if bid is None:
            raise ProtocolError(
                f"node {node} self-invalidating uncached block {block:#x}"
            )
        self.self_invalidate_id(node, bid)

    def holds(self, node: int, block: int) -> bool:
        bid = self.ids.get(block)
        return bid is not None and self.states[node][bid] != NOT_CACHED

    def unresolved_self_invalidations(
        self, weights: Optional[Sequence[int]] = None
    ) -> int:
        """Self-invalidations never verified by the end of the run.

        In the base system these copies would simply have stayed cached
        (no invalidation), so they belong to no Figure-6 category.
        ``weights``, when given, counts each dense id's entries that
        many times (a folded replay's class sizes).
        """
        if weights is None:
            return sum(len(mask) for mask in self._mask if mask)
        return sum(
            len(mask) * weight
            for mask, weight in zip(self._mask, weights) if mask
        )

    # ------------------------------------------------------------------
    # read accessors (tests, diagnostics)
    # ------------------------------------------------------------------

    def cache_state(self, node: int, block: int) -> Optional[CacheState]:
        """The state of ``node``'s copy of ``block``, None if uncached."""
        bid = self.ids.get(block)
        return None if bid is None else _STATE_OF[self.states[node][bid]]

    def entry(self, block: int) -> DirectoryEntry:
        """A snapshot of ``block``'s directory entry."""
        bid = self.ids.get(block)
        if bid is None:
            return DirectoryEntry()
        owner = self._owner[bid]
        sharers = set(_nodes_of(self._sharers[bid]))
        if owner >= 0:
            state = DirState.EXCLUSIVE
        elif sharers:
            state = DirState.SHARED
        else:
            state = DirState.IDLE
        return DirectoryEntry(
            state=state,
            sharers=sharers,
            owner=owner if owner >= 0 else None,
            version=self._version[bid],
            verification_mask={
                node: _STATE_OF[held]
                for node, held in (self._mask[bid] or {}).items()
            },
        )

    def known_blocks(self) -> Set[int]:
        return set(self.blocks)

    def check_invariants(self) -> None:
        """Raise ProtocolError unless every directory entry is
        well-formed and agrees with the caches holding its block."""
        for block, bid in self.ids.items():
            ent = self.entry(block)
            ent.check_invariants()
            holders = {
                node: state[bid]
                for node, state in enumerate(self.states)
                if state[bid] != NOT_CACHED
            }
            if ent.state is DirState.EXCLUSIVE:
                expected = {ent.owner: EXCLUSIVE}
            else:
                expected = dict.fromkeys(ent.sharers, SHARED)
            if holders != expected:
                raise ProtocolError(
                    f"caches {holders} disagree with directory {ent} "
                    f"on block {block:#x}"
                )


def _nodes_of(bitmask: int) -> Tuple[int, ...]:
    """The node ids set in ``bitmask``, ascending."""
    nodes = []
    while bitmask:
        low = bitmask & -bitmask
        nodes.append(low.bit_length() - 1)
        bitmask ^= low
    return tuple(nodes)
