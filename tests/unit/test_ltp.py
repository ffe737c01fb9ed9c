"""Unit tests for the two-level LTPs (repro.core.ltp), exercising the
Figure 3 scenarios directly against the predictor interface."""

from repro.core.confidence import ConfidenceConfig
from repro.core.ltp import GlobalLTP, PerBlockLTP
from repro.core.signature import TruncatedAddEncoder
from repro.protocol.states import MissKind

FAST = ConfidenceConfig(initial=3, predict_threshold=3)  # learn once

#: the id -> block table the tests bind: block ids name blocks directly
BLOCKS = list(range(16))


def bound(policy):
    """``policy`` bound to :data:`BLOCKS`, as a simulator binds it
    before the first event."""
    policy.bind(BLOCKS)
    return policy


def drive_trace(policy, block, pcs, invalidate=True):
    """Feed one trace (first pc is the coherence miss) to a bound
    policy; return the index at which the policy fired, or None."""
    fired_at = None
    for i, pc in enumerate(pcs):
        fired = policy.on_access(
            block, pc,
            trace_start=(i == 0),
            miss_kind=MissKind.READ_FETCH if i == 0 else None,
            version=0 if i == 0 else None,
        )
        if fired:
            fired_at = i
            break
    if fired_at is None and invalidate:
        policy.on_invalidation(block)
    return fired_at


class TestLearningCycle:
    def test_no_prediction_before_training(self):
        ltp = bound(PerBlockLTP(confidence=FAST))
        assert drive_trace(ltp, 1, [0x10, 0x20]) is None

    def test_predicts_after_one_observation_with_fast_confidence(self):
        ltp = bound(PerBlockLTP(confidence=FAST))
        drive_trace(ltp, 1, [0x10, 0x20])
        assert drive_trace(ltp, 1, [0x10, 0x20]) == 1

    def test_default_confidence_requires_two_confirmations(self):
        ltp = bound(PerBlockLTP())  # initial=2, threshold=3
        drive_trace(ltp, 1, [0x10, 0x20])
        assert drive_trace(ltp, 1, [0x10, 0x20]) is None
        assert drive_trace(ltp, 1, [0x10, 0x20]) == 1

    def test_single_touch_trace_fires_at_fetch(self):
        """A one-access trace is complete at the miss itself."""
        ltp = bound(PerBlockLTP(confidence=FAST))
        drive_trace(ltp, 1, [0x10])
        assert drive_trace(ltp, 1, [0x10]) == 0

    def test_loop_double_touch_fires_at_second_touch(self):
        """Figure 3(c): {PCi, PCj, PCj} — a single-PC predictor cannot
        place the last touch, the trace signature can."""
        ltp = bound(PerBlockLTP(confidence=FAST))
        trace = [0x10, 0x20, 0x20]
        drive_trace(ltp, 1, trace)
        assert drive_trace(ltp, 1, trace) == 2

    def test_procedure_reuse_distinguished(self):
        """Figure 3(b): last touch only in the last invocation of foo."""
        ltp = bound(PerBlockLTP(confidence=FAST))
        trace = [0x10, 0x20, 0x20]  # foo's PCj touched twice
        drive_trace(ltp, 1, trace)
        fired = drive_trace(ltp, 1, trace)
        assert fired == 2  # not at the first PCj

    def test_distinct_traces_learned_per_block(self):
        ltp = bound(PerBlockLTP(confidence=FAST))
        drive_trace(ltp, 1, [0x10, 0x20])
        drive_trace(ltp, 2, [0x30])
        assert drive_trace(ltp, 1, [0x10, 0x20]) == 1
        assert drive_trace(ltp, 2, [0x30]) == 0

    def test_feedback_strengthens_and_weakens(self):
        ltp = bound(PerBlockLTP(confidence=FAST))
        drive_trace(ltp, 1, [0x10])
        fired = drive_trace(ltp, 1, [0x10], invalidate=False)
        assert fired == 0
        ltp.on_premature(1)  # poisoned
        assert drive_trace(ltp, 1, [0x10]) is None

    def test_verified_correct_keeps_firing(self):
        ltp = bound(PerBlockLTP(confidence=FAST))
        drive_trace(ltp, 1, [0x10])
        for _ in range(3):
            fired = drive_trace(ltp, 1, [0x10], invalidate=False)
            assert fired == 0
            ltp.on_verified_correct(1)


class TestPerBlockIsolation:
    def test_no_cross_block_interference(self):
        """Per-block tables: block 2's traces never fire block 3's
        signature, even when one is a subtrace of the other."""
        ltp = bound(PerBlockLTP(confidence=FAST))
        short = [0x10, 0x20]
        long = [0x10, 0x20, 0x30]
        drive_trace(ltp, 2, short)   # learned only for block 2
        fired = drive_trace(ltp, 3, long)
        assert fired is None  # block 3 has no table entry yet


class TestGlobalAliasing:
    def test_subtrace_aliasing_across_blocks(self):
        """Section 5.3: block A's complete trace is a subtrace of block
        B's; a global table fires prematurely mid-trace on B."""
        ltp = bound(GlobalLTP(confidence=FAST))
        short = [0x10, 0x20]
        long = [0x10, 0x20, 0x30]
        drive_trace(ltp, 2, short)
        fired = drive_trace(ltp, 3, long)
        assert fired == 1  # premature: fired where A's trace ended

    def test_training_transfer(self):
        """The flip side: identical traces on different blocks share
        one signature entry (the storage benefit of PAg)."""
        ltp = bound(GlobalLTP(confidence=FAST))
        drive_trace(ltp, 2, [0x10, 0x20])
        assert drive_trace(ltp, 9, [0x10, 0x20]) == 1


class TestStorageReports:
    def test_per_block_report_counts_tables(self):
        ltp = bound(
            PerBlockLTP(encoder=TruncatedAddEncoder(13), confidence=FAST)
        )
        drive_trace(ltp, 1, [0x10, 0x20])
        # NB: 0x34, not 0x30 — a single-touch trace at 0x30 would alias
        # the {0x10, 0x20} signature under truncated addition and fire
        # instead of learning a second entry.
        drive_trace(ltp, 1, [0x34])
        drive_trace(ltp, 2, [0x40])
        report = ltp.storage_report()
        assert report.signature_bits == 13
        assert report.tracked_blocks == 2
        assert report.table_entries_total == 3
        assert sorted(report.per_block_entries) == [1, 2]
        assert report.entries_per_block == 1.5

    def test_per_block_entries_in_learn_order(self):
        """Storage reports list block tables in the order they were
        created, not in id order."""
        ltp = bound(PerBlockLTP(confidence=FAST))
        drive_trace(ltp, 5, [0x10])
        drive_trace(ltp, 2, [0x10])
        drive_trace(ltp, 2, [0x24])
        assert ltp.storage_report().per_block_entries == [1, 2]

    def test_global_report_shares_entries(self):
        ltp = bound(GlobalLTP(confidence=FAST))
        drive_trace(ltp, 1, [0x10])
        drive_trace(ltp, 2, [0x10])  # same signature, shared entry
        report = ltp.storage_report()
        assert report.tracked_blocks == 2
        assert report.table_entries_total == 1

    def test_overhead_bytes_formula(self):
        """7 bytes/block at 13-bit signatures and 2.8 entries/block —
        the paper's per-block headline figure."""
        from repro.core.base import StorageReport

        report = StorageReport(
            signature_bits=13, counter_bits=2,
            tracked_blocks=10, table_entries_total=28,
        )
        # 13 + 2.8 * 15 = 55 bits = 6.875 bytes
        assert abs(report.overhead_bytes_per_block - 6.875) < 1e-9
