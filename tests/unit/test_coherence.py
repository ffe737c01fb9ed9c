"""Unit tests for the functional coherence engine (repro.protocol)."""

import pytest

from repro.errors import ProtocolError
from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import CacheState, DirState, MissKind


@pytest.fixture
def engine():
    return CoherenceEngine(num_nodes=4)


A = 0x1000  # block 0x80
B = 0x2000  # block 0x100


class TestBasicTransitions:
    def test_first_read_is_read_fetch(self, engine):
        res = engine.access(0, 0x10, A, False)
        assert not res.hit
        assert res.miss_kind is MissKind.READ_FETCH
        assert res.trace_start
        assert res.version == 0

    def test_read_after_read_hits(self, engine):
        engine.access(0, 0x10, A, False)
        res = engine.access(0, 0x14, A, False)
        assert res.hit

    def test_write_grants_exclusive(self, engine):
        res = engine.access(0, 0x10, A, True)
        assert res.miss_kind is MissKind.WRITE_FETCH
        ent = engine.entry(engine.block_of(A))
        assert ent.state is DirState.EXCLUSIVE
        assert ent.owner == 0
        assert ent.version == 1

    def test_write_after_write_hits(self, engine):
        engine.access(0, 0x10, A, True)
        assert engine.access(0, 0x14, A, True).hit

    def test_read_hit_on_exclusive(self, engine):
        engine.access(0, 0x10, A, True)
        assert engine.access(0, 0x14, A, False).hit

    def test_same_page_different_blocks_independent(self, engine):
        engine.access(0, 0x10, A, True)
        res = engine.access(0, 0x10, A + 32, True)
        assert res.miss_kind is MissKind.WRITE_FETCH


class TestInvalidationDelivery:
    def test_write_invalidates_all_sharers(self, engine):
        for node in (0, 1, 2):
            engine.access(node, 0x10, A, False)
        res = engine.access(3, 0x20, A, True)
        assert sorted(i.node for i in res.invalidations) == [0, 1, 2]
        assert engine.external_invalidations == 3

    def test_upgrade_spares_the_writer(self, engine):
        engine.access(0, 0x10, A, False)
        engine.access(1, 0x10, A, False)
        res = engine.access(0, 0x14, A, True)
        assert res.miss_kind is MissKind.UPGRADE
        assert [i.node for i in res.invalidations] == [1]

    def test_upgrade_does_not_restart_trace(self, engine):
        """Permission upgrades keep the block resident: the trace that
        began at the fetch continues (DESIGN.md trace definition)."""
        engine.access(0, 0x10, A, False)
        res = engine.access(0, 0x14, A, True)
        assert not res.trace_start

    def test_read_invalidates_writer_migratory_protocol(self, engine):
        engine.access(0, 0x10, A, True)
        res = engine.access(1, 0x20, A, False)
        assert [i.node for i in res.invalidations] == [0]
        ent = engine.entry(engine.block_of(A))
        assert ent.state is DirState.SHARED
        assert ent.owner is None

    def test_victim_cache_emptied(self, engine):
        engine.access(0, 0x10, A, True)
        engine.access(1, 0x20, A, False)
        assert not engine.holds(0, engine.block_of(A))

    def test_version_increments_per_write_phase(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, True)   # v 0 -> 1
        engine.access(1, 0x20, A, False)  # read, no bump
        engine.access(2, 0x30, A, True)   # v 1 -> 2
        assert engine.entry(block).version == 2


class TestSelfInvalidation:
    def test_self_invalidate_clears_copy_and_masks(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, True)
        engine.self_invalidate(0, block)
        ent = engine.entry(block)
        assert ent.state is DirState.IDLE
        assert ent.verification_mask == {0: CacheState.EXCLUSIVE}
        assert not engine.holds(0, block)

    def test_self_invalidate_uncached_rejected(self, engine):
        with pytest.raises(ProtocolError):
            engine.self_invalidate(0, engine.block_of(A))

    def test_correct_verification_on_remote_access(self, engine):
        """A masked exclusive copy is verified correct by any remote
        access (the copy would have been invalidated)."""
        block = engine.block_of(A)
        engine.access(0, 0x10, A, True)
        engine.self_invalidate(0, block)
        res = engine.access(1, 0x20, A, False)
        assert res.verified_correct == [0]
        assert not res.premature
        # and crucially: no invalidation message was needed
        assert res.invalidations == []

    def test_premature_when_self_invalidator_returns(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, True)
        engine.self_invalidate(0, block)
        res = engine.access(0, 0x14, A, True)
        assert res.premature
        assert res.verified_correct == []

    def test_shared_mask_not_resolved_by_another_read(self, engine):
        """A masked *shared* copy is only verified by a write: another
        reader proves nothing (Section 4 phase-change rule)."""
        block = engine.block_of(A)
        engine.access(0, 0x10, A, False)
        engine.self_invalidate(0, block)
        res = engine.access(1, 0x20, A, False)
        assert res.verified_correct == []
        assert engine.entry(block).verification_mask

    def test_shared_mask_resolved_by_write(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, False)
        engine.access(1, 0x14, A, False)
        engine.self_invalidate(0, block)
        res = engine.access(2, 0x20, A, True)
        assert res.verified_correct == [0]
        # node 1 still held a real copy: it gets a real invalidation
        assert [i.node for i in res.invalidations] == [1]

    def test_all_sharers_self_invalidate_leaves_idle(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, False)
        engine.access(1, 0x14, A, False)
        engine.self_invalidate(0, block)
        engine.self_invalidate(1, block)
        assert engine.entry(block).state is DirState.IDLE

    def test_unresolved_count(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, False)
        engine.self_invalidate(0, block)
        assert engine.unresolved_self_invalidations() == 1

    def test_requester_premature_and_others_verified_together(self, engine):
        block = engine.block_of(A)
        engine.access(0, 0x10, A, False)
        engine.access(1, 0x14, A, False)
        engine.self_invalidate(0, block)
        engine.self_invalidate(1, block)
        # node 0 comes back with a write: premature for 0, but node 1's
        # dropped copy would have been invalidated -> correct for 1.
        res = engine.access(0, 0x20, A, True)
        assert res.premature
        assert res.verified_correct == [1]


class TestNodeBounds:
    @pytest.mark.parametrize("node", [4, -1])
    def test_out_of_range_node_rejected(self, engine, node):
        # -1 would otherwise index the last node's cache state
        with pytest.raises(ProtocolError, match="outside 0..3"):
            engine.access(node, 0x10, A, True)
        assert engine.cache_state(3, engine.block_of(A)) is None


class TestInvariants:
    def test_directory_invariants_hold_through_a_mix(self, engine):
        ops = [
            (0, A, True), (1, A, False), (2, A, False), (1, A, True),
            (0, B, False), (1, B, True), (3, B, False), (3, A, True),
        ]
        for node, address, is_write in ops:
            engine.access(node, 0x10, address, is_write)
            engine.check_invariants()

    def test_cache_and_directory_agree(self, engine):
        engine.access(0, 0x10, A, True)
        engine.access(1, 0x14, A, False)
        engine.access(2, 0x18, A, False)
        block = engine.block_of(A)
        ent = engine.entry(block)
        assert ent.sharers == {1, 2}
        assert engine.holds(1, block) and engine.holds(2, block)
        assert not engine.holds(0, block)
