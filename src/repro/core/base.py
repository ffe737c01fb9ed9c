"""The self-invalidation policy interface.

Every mechanism evaluated in the paper — the LTP organizations, Last-PC,
DSI, plus our oracle/null ablation policies — fits one per-node
interface: it observes the node's memory accesses (with coherence
metadata), invalidations, synchronization boundaries, and verification
feedback, and decides when to self-invalidate which blocks.

Both simulators keep their state over *dense block ids*
(``0..len(blocks)-1``), and so do the policies: a simulator hands every
policy its id -> block number table once through
:meth:`SelfInvalidationPolicy.bind`, after compiling its input and
before the first event, and every hook then names blocks by id.
Access-triggered policies (LTP family) answer with the boolean return
value of :meth:`SelfInvalidationPolicy.on_access`;
synchronization-triggered policies (DSI) answer through
:meth:`SelfInvalidationPolicy.on_sync`.

A policy whose state and decisions for a block depend only on its
node's accesses to that block and the outcomes reported for it, and
which neither fires nor changes state at a sync boundary, is
*block-local* and says so through
:meth:`SelfInvalidationPolicy.block_local_config`: the per-block LTP
(every encoder, confidence setting and table cap), Last-PC and the
base policy. DSI (sync bursts), the global LTP (one shared table), the
hybrid and the oracle (per-node access ordinals) are not. The accuracy
simulator replays one block per class of equal histories for a run
whose nodes all return the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

from repro.protocol.states import MissKind
from repro.trace.events import SyncKind


@dataclass
class StorageReport:
    """Hardware-cost accounting for Table 3.

    Attributes:
        signature_bits: width of each signature (current + stored).
        counter_bits: width of each confidence counter.
        tracked_blocks: blocks with a current-signature register, i.e.
            every actively shared block the predictor ever followed.
        table_entries_total: stored last-touch signatures summed over all
            tables (per-block org: sum over block tables; global org: the
            one table's size).
        per_block_entries: for the per-block organization, the entry
            count of each block's table (empty for global).
    """

    signature_bits: int = 0
    counter_bits: int = 2
    tracked_blocks: int = 0
    table_entries_total: int = 0
    per_block_entries: List[int] = field(default_factory=list)

    @property
    def entries_per_block(self) -> float:
        """Average stored signatures per actively shared block ("ent")."""
        if self.tracked_blocks == 0:
            return 0.0
        return self.table_entries_total / self.tracked_blocks

    @property
    def overhead_bytes_per_block(self) -> float:
        """Bytes per actively shared block ("ovh"): one current-signature
        register plus the amortized share of stored signatures and their
        two-bit counters."""
        if self.tracked_blocks == 0:
            return 0.0
        stored_bits = self.table_entries_total * (
            self.signature_bits + self.counter_bits
        )
        total_bits = (
            self.tracked_blocks * self.signature_bits + stored_bits
        )
        return total_bits / self.tracked_blocks / 8.0


class SelfInvalidationPolicy:
    """Per-node policy deciding when to self-invalidate which blocks.

    The accuracy and timing simulators drive one instance per node with
    the node-local event stream. Subclasses override the hooks they care
    about; defaults are no-ops, so e.g. DSI ignores per-access prediction
    and LTP ignores synchronization.
    """

    #: human-readable policy name for reports
    name: str = "policy"

    def bind(self, blocks: Sequence[int]) -> None:
        """Receive the simulator's dense id -> block number table (read
        only). Called once, before the first event; every later hook
        names blocks by their index in ``blocks``."""

    def on_access(
        self,
        bid: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> bool:
        """Observe one access by this node to a (shared) block; return
        True to predict that it was the last touch, so the simulator
        self-invalidates the block right away.

        Args:
            bid: dense id of the block touched.
            pc: program counter of the touching instruction.
            trace_start: the block just entered the cache (coherence miss
                that installs data) — signature registers reset here.
            miss_kind: coherence-miss classification, None on a hit.
            version: directory write-version seen at fetch (DSI), None on
                hits.
        """
        return False

    def on_invalidation(self, bid: int) -> None:
        """An external invalidation removed this node's copy: the trace
        for block ``bid`` completed — the learning event."""

    def on_sync(self, kind: SyncKind, sync_id: int) -> List[int]:
        """This node crossed a synchronization boundary; return the ids
        of blocks to self-invalidate now, in ascending block-number
        order (DSI's bulk trigger)."""
        return []

    def on_verified_correct(self, bid: int) -> None:
        """Feedback: an earlier self-invalidation of block ``bid`` proved
        correct (piggybacked verification bit, Section 4)."""

    def on_premature(self, bid: int) -> None:
        """Feedback: an earlier self-invalidation of block ``bid`` proved
        premature — this node needed the block again first."""

    def block_local_config(self) -> Optional[Hashable]:
        """The policy's configuration if it is block-local, else None.

        A policy is *block-local* when its state and decisions for a
        block depend only on this node's accesses to that block and the
        outcomes the simulator reports for it, and its :meth:`on_sync`
        returns no block and changes no state. A block-local policy
        returns a hashable value that equals another instance's exactly
        when the two are configured alike. When every node's policy
        returns the same value, the accuracy simulator replays one
        block per class of blocks whose histories are equal up to a
        renaming of nodes and weighs its outcomes by the class's size
        (:func:`repro.trace.scheduler.fold`). A subclass that breaks
        the contract returns None.
        """
        return None

    def storage_report(
        self, weights: Optional[Sequence[int]] = None
    ) -> StorageReport:
        """Hardware cost of the predictor state (Table 3).

        ``weights``, when given, is the number of blocks each dense id
        stands for (a folded replay): per-block state then counts that
        many times.
        """
        return StorageReport()
