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
