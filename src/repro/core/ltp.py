"""Two-level trace-based Last-Touch Predictors (Section 3.2).

Both organizations keep one *current signature* register per cached
block, updated on every access by the node's instruction stream. They
differ in the second level:

* :class:`PerBlockLTP` (PAp-like) — a separate last-touch signature
  table per block. No interference between blocks; highest accuracy;
  storage grows with the number of signatures each block needs.
* :class:`GlobalLTP` (PAg-like) — one table shared by all blocks.
  Cheaper and exploits common sharing patterns, but a complete trace of
  one block that is a subtrace of another's causes cross-block aliasing
  and premature predictions (Section 5.3).

Learning: when an external invalidation terminates a block's trace, the
block's current signature is inserted (or its confidence strengthened)
in the table. Prediction: once a signature is present and confident, a
matching current signature fires a self-invalidation; directory
verification feedback then strengthens or weakens the fired signature's
counter (Section 4).

Per-block state lives in lists over the dense block ids the simulator
binds (see :mod:`repro.core.base`), so the per-access fire test is a
list index and one counter-map lookup.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.core.base import SelfInvalidationPolicy, StorageReport
from repro.core.confidence import ConfidenceConfig, CounterTable
from repro.core.signature import SignatureEncoder, TruncatedAddEncoder
from repro.protocol.states import MissKind


class _TwoLevelPredictor(SelfInvalidationPolicy):
    """Shared machinery of the two organizations and Last-PC.

    After :meth:`bind`, four lists over the dense block ids hold the
    first level and the link to the second: the running signature of
    each block's in-flight trace, the fired signature awaiting
    verification, whether the block is actively shared, and the
    signature -> counter map of the table that predicts for the block
    (``None`` while there is none). The organizations differ only in
    which :class:`CounterTable` a block's map belongs to.
    """

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
    ) -> None:
        self.encoder = encoder or TruncatedAddEncoder()
        self.confidence = confidence or ConfidenceConfig()
        # bound encoder hooks and the fire threshold — on_access runs
        # once per memory access
        self._enc_init = self.encoder.init
        self._enc_update = self.encoder.update
        self._threshold = self.confidence.predict_threshold
        #: the fire test goes through CounterTable.confident, which
        #: keeps a bounded table's LRU order
        self._bounded = False

    def bind(self, blocks: Sequence[int]) -> None:
        n = len(blocks)
        #: id -> running signature of the in-flight trace, or None
        self._current: List[Optional[int]] = [None] * n
        #: id -> fired signature awaiting directory verification, or None
        self._pending: List[Optional[int]] = [None] * n
        #: id -> 1 once a trace of the block completed or a prediction
        #: fired for it (actively shared)
        self._active = bytearray(n)
        #: id -> counters of the table predicting for the block, or None
        self._counters: List[Optional[dict]] = [None] * n

    # -- table access points differ between organizations ---------------

    def _table_for(self, bid: int) -> Optional[CounterTable]:
        raise NotImplementedError

    def _learn_table_for(self, bid: int) -> CounterTable:
        """Table used when inserting a completed trace (may create)."""
        raise NotImplementedError

    # -- SelfInvalidationPolicy hooks ------------------------------------

    def on_access(
        self,
        bid: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> bool:
        if trace_start:
            sig = self._enc_init(pc)
        else:
            prev = self._current[bid]
            # A block can be resident from before this policy attached;
            # treat the first sighting as the trace start.
            sig = (
                self._enc_init(pc)
                if prev is None
                else self._enc_update(prev, pc)
            )
        counters = self._counters[bid]
        if counters is None:
            fire = False
        elif self._bounded:
            fire = self._table_for(bid).confident(sig)
        else:
            # CounterTable.confident, minus the LRU bookkeeping an
            # unbounded table does not need (thresholds are >= 0, so
            # an unknown signature never fires)
            fire = counters.get(sig, -1) >= self._threshold
        if fire:
            # Predicted last touch: the controller will self-invalidate,
            # ending the in-flight trace here.
            self._current[bid] = None
            self._pending[bid] = sig
            self._active[bid] = 1
            return True
        self._current[bid] = sig
        return False

    def on_invalidation(self, bid: int) -> None:
        sig = self._current[bid]
        if sig is None:
            return
        self._current[bid] = None
        self._learn_table_for(bid).learn(sig)
        self._active[bid] = 1

    def on_verified_correct(self, bid: int) -> None:
        sig = self._pending[bid]
        if sig is not None:
            self._pending[bid] = None
            self._learn_table_for(bid).strengthen(sig)

    def on_premature(self, bid: int) -> None:
        sig = self._pending[bid]
        if sig is not None:
            self._pending[bid] = None
            self._learn_table_for(bid).weaken(sig)

    def covers_block(self, bid: int) -> bool:
        """True when this predictor holds at least one *confident*
        signature for block ``bid`` — i.e. it can be expected to handle
        the block's self-invalidation itself. Hybrid policies use this
        to decide where a fallback mechanism should step in."""
        counters = self._counters[bid]
        if counters is None:
            return False
        return any(
            value >= self._threshold for value in counters.values()
        )


class PerBlockLTP(_TwoLevelPredictor):
    """PAp-like LTP: a last-touch signature table per block.

    A block's :class:`CounterTable` is created when its first trace is
    learned; until then its counter map is ``None`` and it never fires.
    Capacity modelling (Section 3.3's finite direct-mapped /
    set-associative structures): ``entries_per_block`` caps each block's
    table (LRU within the table), and the fire test then goes through
    :meth:`CounterTable.confident` to keep the LRU order. It defaults to
    unbounded — the configuration Table 3 measures.
    """

    name = "ltp"

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
        entries_per_block: Optional[int] = None,
    ) -> None:
        super().__init__(encoder, confidence)
        self.entries_per_block = entries_per_block
        self._bounded = entries_per_block is not None

    def bind(self, blocks: Sequence[int]) -> None:
        super().bind(blocks)
        #: id -> the block's signature table, or None
        self._tables: List[Optional[CounterTable]] = [None] * len(blocks)
        #: ids in table-creation order, the order storage reports use
        self._learned: List[int] = []

    def _table_for(self, bid: int) -> Optional[CounterTable]:
        return self._tables[bid]

    def _learn_table_for(self, bid: int) -> CounterTable:
        table = self._tables[bid]
        if table is None:
            table = self._tables[bid] = CounterTable(
                self.confidence, max_entries=self.entries_per_block
            )
            self._counters[bid] = table.counters
            self._learned.append(bid)
        return table

    def block_local_config(self) -> Hashable:
        return (
            type(self), self.encoder, self.confidence, self.entries_per_block
        )

    def storage_report(
        self, weights: Optional[Sequence[int]] = None
    ) -> StorageReport:
        # an actively shared block always has a table, so the tracked
        # blocks are the learned ones that are active
        active, tables = self._active, self._tables
        per_block: List[int] = []
        for bid in self._learned:
            if active[bid]:
                per_block += [len(tables[bid])] * (
                    1 if weights is None else weights[bid]
                )
        return StorageReport(
            signature_bits=self.encoder.bits,
            counter_bits=self.confidence.bits,
            tracked_blocks=len(per_block),
            table_entries_total=sum(per_block),
            per_block_entries=per_block,
        )


class GlobalLTP(_TwoLevelPredictor):
    """PAg-like LTP: one global last-touch signature table.

    All blocks share the table — every id's counter map is the one
    table's — so a signature learned from one block predicts (and
    mispredicts) for any other: the cross-block subtrace aliasing of
    Section 5.3.
    """

    name = "ltp-global"

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
    ) -> None:
        super().__init__(encoder, confidence)
        self._table = CounterTable(self.confidence)

    def bind(self, blocks: Sequence[int]) -> None:
        super().bind(blocks)
        self._counters = [self._table.counters] * len(blocks)

    def _table_for(self, bid: int) -> CounterTable:
        return self._table

    def _learn_table_for(self, bid: int) -> CounterTable:
        return self._table

    def storage_report(
        self, weights: Optional[Sequence[int]] = None
    ) -> StorageReport:
        active = self._active
        return StorageReport(
            signature_bits=self.encoder.bits,
            counter_bits=self.confidence.bits,
            tracked_blocks=(
                active.count(1) if weights is None
                else sum(w for w, on in zip(weights, active) if on)
            ),
            table_entries_total=len(self._table),
        )
