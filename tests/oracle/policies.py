"""The reference self-invalidation policies: the readable predictors.

Every hook names a block by its number, per-block state lives in dicts
keyed by block, and ``on_access`` answers with a
:class:`PolicyDecision`. The reference simulators in ``tests/oracle/``
drive them; the shipped simulators drive the package's policies, and
the conformance suite and the equivalence properties require equal
reports. :func:`reference_factory` builds them for a
:class:`~repro.runner.spec.PolicySpec` the way ``PolicySpec.build``
builds the package's, so every oracle caller compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.core.base import StorageReport
from repro.core.confidence import ConfidenceConfig, CounterTable
from repro.core.signature import (
    BASE_SIGNATURE_BITS,
    LastPCEncoder,
    SignatureEncoder,
    TruncatedAddEncoder,
    XorRotateEncoder,
)
from repro.dsi.versioning import VersioningSelector
from repro.protocol.states import MissKind
from repro.runner.spec import PolicySpec
from repro.trace.events import SyncKind


@dataclass(slots=True, frozen=True)
class PolicyDecision:
    """Outcome of observing one access.

    ``self_invalidate`` — predict that this access was the last touch to
    the block; the controller will immediately write the block back.
    """

    self_invalidate: bool = False


DECISION_KEEP = PolicyDecision()
DECISION_FIRE = PolicyDecision(self_invalidate=True)


class SelfInvalidationPolicy:
    """Per-node policy over block numbers; defaults are no-ops."""

    name: str = "policy"

    def on_access(
        self,
        block: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> PolicyDecision:
        return DECISION_KEEP

    def on_invalidation(self, block: int) -> None:
        pass

    def on_sync(self, kind: SyncKind, sync_id: int) -> List[int]:
        return []

    def on_verified_correct(self, block: int) -> None:
        pass

    def on_premature(self, block: int) -> None:
        pass

    def storage_report(self) -> StorageReport:
        return StorageReport()


class NullPolicy(SelfInvalidationPolicy):
    name = "base"


class OraclePolicy(SelfInvalidationPolicy):
    """Fires exactly at profiled last-touch ordinals for one node."""

    name = "oracle"

    def __init__(self, last_touch_ordinals: Set[int]) -> None:
        self._ordinals = last_touch_ordinals
        self._next = 0

    def on_access(self, block, pc, trace_start, miss_kind, version):
        fire = self._next in self._ordinals
        self._next += 1
        return DECISION_FIRE if fire else DECISION_KEEP


class _TwoLevelPredictor(SelfInvalidationPolicy):
    """Shared machinery of the two organizations and Last-PC."""

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
    ) -> None:
        self.encoder = encoder or TruncatedAddEncoder()
        self.confidence = confidence or ConfidenceConfig()
        #: block -> running signature of the in-flight trace
        self._current: Dict[int, int] = {}
        #: block -> fired signature awaiting directory verification
        self._pending: Dict[int, int] = {}
        #: blocks whose traces have ever completed (actively shared)
        self._active_blocks: set = set()

    def _table_for(self, block: int) -> Optional[CounterTable]:
        raise NotImplementedError

    def _learn_table_for(self, block: int) -> CounterTable:
        """Table used when inserting a completed trace (may create)."""
        raise NotImplementedError

    def on_access(self, block, pc, trace_start, miss_kind, version):
        if trace_start:
            sig = self.encoder.init(pc)
        else:
            prev = self._current.get(block)
            # A block can be resident from before this policy attached;
            # treat the first sighting as the trace start.
            sig = (
                self.encoder.init(pc)
                if prev is None
                else self.encoder.update(prev, pc)
            )
        table = self._table_for(block)
        if table is not None and table.confident(sig):
            # Predicted last touch: the controller will self-invalidate,
            # ending the in-flight trace here.
            self._current.pop(block, None)
            self._pending[block] = sig
            self._active_blocks.add(block)
            return DECISION_FIRE
        self._current[block] = sig
        return DECISION_KEEP

    def on_invalidation(self, block: int) -> None:
        sig = self._current.pop(block, None)
        if sig is None:
            return
        self._learn_table_for(block).learn(sig)
        self._active_blocks.add(block)

    def on_verified_correct(self, block: int) -> None:
        sig = self._pending.pop(block, None)
        if sig is not None:
            self._learn_table_for(block).strengthen(sig)

    def on_premature(self, block: int) -> None:
        sig = self._pending.pop(block, None)
        if sig is not None:
            self._learn_table_for(block).weaken(sig)

    def covers_block(self, block: int) -> bool:
        """True when this predictor holds at least one *confident*
        signature for ``block``."""
        table = self._table_for(block)
        if table is None:
            return False
        return any(
            value >= self.confidence.predict_threshold
            for _sig, value in table.items()
        )


class PerBlockLTP(_TwoLevelPredictor):
    """PAp-like LTP: a last-touch signature table per block."""

    name = "ltp"

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
        entries_per_block: Optional[int] = None,
    ) -> None:
        super().__init__(encoder, confidence)
        self.entries_per_block = entries_per_block
        self._tables: Dict[int, CounterTable] = {}

    def _table_for(self, block: int) -> Optional[CounterTable]:
        return self._tables.get(block)

    def _learn_table_for(self, block: int) -> CounterTable:
        table = self._tables.get(block)
        if table is None:
            table = self._tables[block] = CounterTable(
                self.confidence, max_entries=self.entries_per_block
            )
        return table

    def storage_report(self) -> StorageReport:
        active = self._active_blocks
        per_block = [
            len(table)
            for block, table in self._tables.items()
            if block in active
        ]
        return StorageReport(
            signature_bits=self.encoder.bits,
            counter_bits=self.confidence.bits,
            tracked_blocks=len(active),
            table_entries_total=sum(per_block),
            per_block_entries=per_block,
        )


class GlobalLTP(_TwoLevelPredictor):
    """PAg-like LTP: one global last-touch signature table."""

    name = "ltp-global"

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
    ) -> None:
        super().__init__(encoder, confidence)
        self._table = CounterTable(self.confidence)

    def _table_for(self, block: int) -> CounterTable:
        return self._table

    def _learn_table_for(self, block: int) -> CounterTable:
        return self._table

    def storage_report(self) -> StorageReport:
        return StorageReport(
            signature_bits=self.encoder.bits,
            counter_bits=self.confidence.bits,
            tracked_blocks=len(self._active_blocks),
            table_entries_total=len(self._table),
        )


class LastPCPredictor(PerBlockLTP):
    """Per-block two-level predictor correlating on the last PC only."""

    name = "last-pc"

    def __init__(
        self,
        bits: int = BASE_SIGNATURE_BITS,
        confidence: Optional[ConfidenceConfig] = None,
    ) -> None:
        super().__init__(encoder=LastPCEncoder(bits), confidence=confidence)


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
        #: cached blocks currently marked for self-invalidation
        self._candidates: Set[int] = set()

    def on_access(self, block, pc, trace_start, miss_kind, version):
        if miss_kind is not None:
            if self.selector.observe_fetch(block, miss_kind, version):
                self._candidates.add(block)
            elif miss_kind is MissKind.UPGRADE:
                # The migratory read-modify-write exclusion: upgrading a
                # read copy revokes any candidacy from its read fetch.
                self._candidates.discard(block)
        return DECISION_KEEP

    def on_invalidation(self, block: int) -> None:
        self._candidates.discard(block)

    def on_sync(self, kind: SyncKind, sync_id: int) -> List[int]:
        if kind not in self.triggers or not self._candidates:
            return []
        burst = sorted(self._candidates)
        self._candidates.clear()
        return burst


class HybridPolicy(SelfInvalidationPolicy):
    """Per-access LTP firing + LTP-vetoed DSI bursts at sync points."""

    name = "hybrid"

    def __init__(
        self,
        encoder: Optional[SignatureEncoder] = None,
        confidence: Optional[ConfidenceConfig] = None,
        min_training: int = 3,
    ) -> None:
        self.ltp = PerBlockLTP(encoder, confidence)
        self.dsi = DSIPolicy()
        self.min_training = min_training
        #: completed (externally invalidated) traces per block
        self._completed: dict = {}

    def on_access(self, block, pc, trace_start, miss_kind, version):
        self.dsi.on_access(block, pc, trace_start, miss_kind, version)
        return self.ltp.on_access(
            block, pc, trace_start, miss_kind, version
        )

    def on_sync(self, kind: SyncKind, sync_id: int) -> List[int]:
        burst = self.dsi.on_sync(kind, sync_id)
        return [
            block
            for block in burst
            if self._completed.get(block, 0) >= self.min_training
            and not self.ltp.covers_block(block)
        ]

    def on_invalidation(self, block: int) -> None:
        self._completed[block] = self._completed.get(block, 0) + 1
        self.ltp.on_invalidation(block)
        self.dsi.on_invalidation(block)

    def on_verified_correct(self, block: int) -> None:
        self.ltp.on_verified_correct(block)

    def on_premature(self, block: int) -> None:
        self.ltp.on_premature(block)

    def storage_report(self):
        return self.ltp.storage_report()


def reference_factory(
    spec: PolicySpec,
) -> Callable[[int], SelfInvalidationPolicy]:
    """The per-node factory of the reference policy for ``spec``: the
    counterpart of ``spec.build``, which builds the package's."""
    confidence = (
        ConfidenceConfig(**dict(spec.confidence)) if spec.confidence else None
    )

    def encoder() -> SignatureEncoder:
        if spec.encoder == "xor-rotate":
            return XorRotateEncoder(spec.bits)
        return TruncatedAddEncoder(spec.bits)

    def build(node: int) -> SelfInvalidationPolicy:
        if spec.name == "base":
            return NullPolicy()
        if spec.name == "dsi":
            return DSIPolicy()
        if spec.name == "hybrid":
            return HybridPolicy()
        if spec.name == "last-pc":
            return LastPCPredictor(bits=spec.bits, confidence=confidence)
        if spec.name == "ltp":
            return PerBlockLTP(
                encoder(),
                confidence,
                entries_per_block=spec.entries_per_block,
            )
        return GlobalLTP(encoder(), confidence)

    return build
