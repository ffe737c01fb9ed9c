"""Directory state: per-block sharing metadata.

Each block's :class:`DirectoryEntry` carries the classic full-map fields
(state, sharer list, owner) plus the two extensions the paper's
mechanisms need:

* a **write version number** — incremented every time a processor gains
  exclusive access — which is what DSI's "versioning" candidate
  selection compares (Section 2.1);
* a **verification mask** recording which nodes self-invalidated their
  copies and from which cache state, so the directory can judge each
  speculative self-invalidation *correct* (the copy would have been
  invalidated anyway) or *premature* (the self-invalidator came back for
  the block first) — Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.errors import ProtocolError
from repro.protocol.states import CacheState, DirState


@dataclass
class DirectoryEntry:
    """Sharing metadata for one block."""

    state: DirState = DirState.IDLE
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    version: int = 0
    # node -> cache state it held when it self-invalidated
    verification_mask: Dict[int, CacheState] = field(default_factory=dict)

    def check_invariants(self) -> None:
        """Raise ProtocolError if the entry violates protocol invariants."""
        if self.state is DirState.IDLE:
            if self.sharers or self.owner is not None:
                raise ProtocolError(f"IDLE entry with copies: {self}")
        elif self.state is DirState.SHARED:
            if not self.sharers or self.owner is not None:
                raise ProtocolError(f"bad SHARED entry: {self}")
        elif self.state is DirState.EXCLUSIVE:
            if self.owner is None or self.sharers:
                raise ProtocolError(f"bad EXCLUSIVE entry: {self}")


class Directory:
    """Lazy map of block number -> :class:`DirectoryEntry`.

    The reference timing core keeps its directory state here. (The
    functional engine keeps the same fields in flat per-block lists,
    and returns :class:`DirectoryEntry` snapshots from its ``entry()``
    accessor.)
    """

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        ent = self._entries.get(block)
        if ent is None:
            ent = DirectoryEntry()
            self._entries[block] = ent
        return ent

    def known_blocks(self) -> Set[int]:
        return set(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def check_all_invariants(self) -> None:
        for ent in self._entries.values():
            ent.check_invariants()
