"""Unit tests for the Last-PC baseline (repro.core.last_pc)."""

from repro.core.confidence import ConfidenceConfig
from repro.core.last_pc import LastPCPredictor
from repro.protocol.states import MissKind
from tests.unit.test_ltp import bound

FAST = ConfidenceConfig(initial=3, predict_threshold=3)


def drive(policy, block, pcs, invalidate=True):
    fired_at = None
    for i, pc in enumerate(pcs):
        if policy.on_access(
            block, pc, i == 0,
            MissKind.READ_FETCH if i == 0 else None,
            0 if i == 0 else None,
        ):
            fired_at = i
            break
    if fired_at is None and invalidate:
        policy.on_invalidation(block)
    return fired_at


class TestLastPC:
    def test_predicts_unique_final_pc(self):
        """When the final instruction touches the block exactly once,
        a single PC suffices (the easy case Last-PC gets right)."""
        lp = bound(LastPCPredictor(confidence=FAST))
        drive(lp, 1, [0x10, 0x20, 0x30])
        assert drive(lp, 1, [0x10, 0x20, 0x30]) == 2

    def test_fails_on_repeated_final_pc(self):
        """Figure 3(c): the loop's load touches twice; Last-PC fires at
        the first touch (premature), then is retired by the poison
        mechanism — 'not predicted' forever after."""
        lp = bound(LastPCPredictor(confidence=FAST))
        trace = [0x10, 0x20, 0x20]
        drive(lp, 1, trace)
        fired = drive(lp, 1, trace, invalidate=False)
        assert fired == 1  # premature, at the first 0x20
        lp.on_premature(1)
        # re-train: completes externally with the same last PC
        drive(lp, 1, trace)
        assert drive(lp, 1, trace) is None

    def test_fires_at_miss_for_single_access_trace(self):
        lp = bound(LastPCPredictor(confidence=FAST))
        drive(lp, 1, [0x10])
        assert drive(lp, 1, [0x10]) == 0

    def test_equivalent_to_history_length_one(self):
        """Any two traces with the same final PC share a signature."""
        lp = bound(LastPCPredictor(confidence=FAST))
        drive(lp, 1, [0x10, 0x30])
        # different prefix, same last PC: fires anyway
        assert drive(lp, 1, [0x99, 0x30]) == 1

    def test_name(self):
        assert LastPCPredictor().name == "last-pc"
