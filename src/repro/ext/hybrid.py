"""Hybrid self-invalidation: LTP where traces are stable, DSI where not.

Barnes is the paper's one case where DSI out-predicts LTP: versioning
keys on *block identity*, so the mutating octree that defeats trace
correlation doesn't bother it. The obvious composition — and a natural
"future work" ablation — is to run both: the LTP fires per-access as
usual, and at synchronization boundaries the DSI half self-invalidates
only the candidate blocks the LTP does **not** cover with a confident
signature. Stable-trace blocks keep LTP's timeliness; unstable blocks
fall back to versioning's coarse-but-robust heuristic.

Measured effect (``ltp-repro hybrid``): barnes recovers most of DSI's
coverage on top of LTP's, while the regular workloads keep their LTP
numbers and DSI's premature bursts stay suppressed (its candidates on
LTP-covered blocks are vetoed).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.base import SelfInvalidationPolicy
from repro.core.confidence import ConfidenceConfig
from repro.core.ltp import PerBlockLTP
from repro.core.signature import SignatureEncoder
from repro.dsi.predictor import DSIPolicy
from repro.protocol.states import MissKind
from repro.trace.events import SyncKind


class HybridPolicy(SelfInvalidationPolicy):
    """Per-access LTP firing + LTP-vetoed DSI bursts at sync points.

    The veto needs a *training grace period*: a DSI burst that fires
    mid-trace cuts the trace short, so the LTP never observes a
    complete one and never becomes confident — a starvation loop in
    which the fallback permanently displaces the predictor it was meant
    to back up (dsmc exhibits this immediately). The DSI half is
    therefore only allowed to touch a block after the LTP has seen at
    least ``min_training`` *completed* traces for it and still lacks a
    confident signature.
    """

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
        #: bursts vetoed because the LTP covers or is still training
        self.vetoed = 0

    def bind(self, blocks: Sequence[int]) -> None:
        self.ltp.bind(blocks)
        self.dsi.bind(blocks)
        #: id -> completed (externally invalidated) traces of the block
        self._completed = [0] * len(blocks)

    def on_access(
        self,
        bid: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
    ) -> bool:
        self.dsi.on_access(bid, pc, trace_start, miss_kind, version)
        return self.ltp.on_access(bid, pc, trace_start, miss_kind, version)

    def on_sync(self, kind: SyncKind, sync_id: int) -> List[int]:
        burst = self.dsi.on_sync(kind, sync_id)
        allowed = []
        for bid in burst:
            trained = self._completed[bid] >= self.min_training
            if not trained or self.ltp.covers_block(bid):
                self.vetoed += 1
            else:
                allowed.append(bid)
        return allowed

    def on_invalidation(self, bid: int) -> None:
        self._completed[bid] += 1
        self.ltp.on_invalidation(bid)
        self.dsi.on_invalidation(bid)

    def on_verified_correct(self, bid: int) -> None:
        # Only the LTP half keeps per-prediction feedback state; DSI is
        # feedback-free (as in the paper).
        self.ltp.on_verified_correct(bid)

    def on_premature(self, bid: int) -> None:
        self.ltp.on_premature(bid)

    def storage_report(self, weights=None):
        return self.ltp.storage_report(weights)
