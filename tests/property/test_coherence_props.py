"""Property-based tests of coherence-protocol invariants.

Random access streams — optionally interleaved with random (legal)
self-invalidations — must preserve the directory/cache invariants after
every single operation, and the self-invalidation accounting identities
must hold at the end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import CacheState, DirState, ProtocolVariant

NODES = 4
BLOCKS = 6

accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NODES - 1),   # node
        st.integers(min_value=0, max_value=BLOCKS - 1),  # block idx
        st.booleans(),                                   # is_write
        st.booleans(),                                   # try self-inval
    ),
    min_size=1,
    max_size=120,
)


def _check_consistency(engine: CoherenceEngine) -> None:
    engine.check_invariants()
    for block in engine.known_blocks():
        ent = engine.entry(block)
        holders = {
            node
            for node in range(NODES)
            if engine.cache_state(node, block) is not None
        }
        if ent.state is DirState.IDLE:
            assert not holders
        elif ent.state is DirState.SHARED:
            assert holders == ent.sharers
            for node in holders:
                assert engine.cache_state(node, block) is \
                    CacheState.SHARED
        else:
            assert holders == {ent.owner}
            assert engine.cache_state(ent.owner, block) is \
                CacheState.EXCLUSIVE


@given(accesses)
@settings(max_examples=120, deadline=None)
def test_invariants_hold_under_random_streams(stream):
    engine = CoherenceEngine(NODES)
    for node, block_idx, is_write, do_si in stream:
        address = 0x1000 + 32 * block_idx
        engine.access(node, 0x10 + node, address, is_write)
        block = engine.block_of(address)
        if do_si and engine.holds(node, block):
            engine.self_invalidate(node, block)
        _check_consistency(engine)


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_accounting_identities(stream):
    """predicted(verified) + premature + unresolved == self-invalidations
    fired, and every external invalidation removed a real copy."""
    engine = CoherenceEngine(NODES)
    verified = premature = 0
    for node, block_idx, is_write, do_si in stream:
        address = 0x1000 + 32 * block_idx
        res = engine.access(node, 0x10 + node, address, is_write)
        verified += len(res.verified_correct)
        premature += 1 if res.premature else 0
        block = engine.block_of(address)
        if do_si and engine.holds(node, block):
            engine.self_invalidate(node, block)
    unresolved = engine.unresolved_self_invalidations()
    assert verified + premature + unresolved == engine.self_invalidations


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_exclusive_writer_unique(stream):
    """At any point at most one node holds a writable copy of a block."""
    engine = CoherenceEngine(NODES)
    for node, block_idx, is_write, _ in stream:
        engine.access(node, 0x10, 0x1000 + 32 * block_idx, is_write)
        for block in engine.known_blocks():
            writers = [
                n
                for n in range(NODES)
                if engine.cache_state(n, block) is CacheState.EXCLUSIVE
            ]
            assert len(writers) <= 1


@given(accesses)
@settings(max_examples=80, deadline=None)
def test_hits_never_generate_invalidations(stream):
    engine = CoherenceEngine(NODES)
    for node, block_idx, is_write, _ in stream:
        res = engine.access(node, 0x10, 0x1000 + 32 * block_idx, is_write)
        if res.hit:
            assert not res.invalidations
            assert res.miss_kind is None


@given(accesses, st.sampled_from(list(ProtocolVariant)))
@settings(max_examples=80, deadline=None)
def test_hits_leave_nothing_to_verify(stream, variant):
    """The engine skips Section-4 verification on plain hits. That is
    exact only if a hit never finds a masked copy it would resolve: its
    own (premature), an Exclusive one, or — on a write — any."""
    engine = CoherenceEngine(NODES, variant=variant)
    for node, block_idx, is_write, do_si in stream:
        address = 0x1000 + 32 * block_idx
        block = engine.block_of(address)
        mask = engine.entry(block).verification_mask
        res = engine.access(node, 0x10 + node, address, is_write)
        if res.hit:
            assert node not in mask
            assert CacheState.EXCLUSIVE not in mask.values()
            assert not (is_write and mask)
        if do_si and engine.holds(node, block):
            engine.self_invalidate(node, block)
