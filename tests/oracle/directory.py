"""The reference timing core's directory: one entry per block."""

from __future__ import annotations

from typing import Dict, Set

from repro.protocol.directory import DirectoryEntry


class Directory:
    """Lazy map of block number -> :class:`DirectoryEntry`.

    (The shipped engines keep the same fields in flat per-block lists;
    the functional engine returns :class:`DirectoryEntry` snapshots
    from its ``entry()`` accessor.)
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
