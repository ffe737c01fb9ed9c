"""DSI's versioning candidate selection (Section 2.1).

"Their best scheme is based on 'versioning' and maintains write-version
numbers at the directory with all the cached copies. Subsequent writes
to a block increment the version number at the directory. Upon a block
request, the protocol compares the cacher's version number for the block
with the one stored at the directory. If the version numbers are
different, the block is actively shared and is therefore selected as a
candidate for self-invalidation."

The directory-side version lives in
:class:`repro.protocol.directory.DirectoryEntry`; this class is the
node-side half: it remembers the version each block carried when this
node last cached it and flags candidacy on version mismatch. Blocks
fetched by a write (or upgraded) are *not* selected — the migratory
exclusion the paper describes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.protocol.states import MissKind


class VersioningSelector:
    """Node-side version bookkeeping and candidate selection."""

    def __init__(self) -> None:
        #: block (the policies pass dense ids) -> version this node's
        #: previous copy carried
        self._last_seen: Dict[int, int] = {}
        self.candidates_selected = 0

    def observe_fetch(
        self, block: int, miss_kind: MissKind, version: Optional[int]
    ) -> bool:
        """Record the fetched version; return True if the block becomes a
        self-invalidation candidate.

        A block is a candidate when the node has cached it before and the
        write-version has moved on since (actively shared). Fetched
        copies — read or write — are tagged with the version *at grant
        time* (pre-increment), so a producer's own write run moves the
        directory version past its tag and its next fetch is a candidate
        (this is what makes DSI near-perfect on em3d's write-fetching
        producers).

        The one exclusion is the migratory pattern: "exclusive block
        request when the requester has the only read-only copy" — an
        UPGRADE — which Lebeck & Wood found causes frequent premature
        self-invalidation (Section 5.1). An upgraded copy is tagged with
        the post-write version, so read-modify-write owners (tomcatv,
        unstructured, moldyn) never become candidates: exactly the
        accuracy gap the paper reports for those benchmarks.
        """
        if version is None:
            return False
        previous = self._last_seen.get(block)
        if miss_kind is MissKind.UPGRADE:
            self._last_seen[block] = version + 1
            return False
        self._last_seen[block] = version
        selected = previous is not None and previous != version
        if selected:
            self.candidates_selected += 1
        return selected

    def known_blocks(self) -> int:
        return len(self._last_seen)
