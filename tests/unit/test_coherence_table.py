"""``CoherenceEngine.miss``, case by case, from one MSI transition table.

The protocol is stated once, declaratively: :data:`TABLE` says what a
coherence miss does to the requester and to the other holders of the
block, and :data:`VERIFIES` says which verification-mask entries a miss
resolves. Every reachable combination of requester state, request,
other holders and mask entries, under both protocol variants, becomes
one parametrized case. Each case reaches its starting state through the
engine's own accesses and self-invalidations, calls ``miss`` once, and
compares the outcome and the next states with what the table derives.

The table is checked in turn against the textbook directory MSI
controller (:data:`TEXTBOOK_MSI`): the DOWNGRADE variant is exactly
MSI, and the INVALIDATE variant the paper evaluates departs from it in
one transition only, a read of a Modified block.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import CacheState, MissKind, ProtocolVariant

INVALIDATE, DOWNGRADE = ProtocolVariant.INVALIDATE, ProtocolVariant.DOWNGRADE
VARIANTS = (INVALIDATE, DOWNGRADE)

#: cache states; M is the engine's Exclusive
I, S, M = "I", "S", "M"
READ, WRITE = "read", "write"
#: who else caches the block when the miss arrives
NONE, SHARERS, OWNER = "none", "sharers", "owner"

#: (variants, requester's state, request, other holders) ->
#: (requester's next state, other holders' next state, miss kind,
#: version bump). Absent rows are plain hits (S or M reading, M
#: writing), which never reach ``miss``.
TABLE: Dict[tuple, tuple] = {
    (VARIANTS, I, READ, NONE): (S, None, MissKind.READ_FETCH, 0),
    (VARIANTS, I, READ, SHARERS): (S, S, MissKind.READ_FETCH, 0),
    ((INVALIDATE,), I, READ, OWNER): (S, I, MissKind.READ_FETCH, 0),
    ((DOWNGRADE,), I, READ, OWNER): (S, S, MissKind.READ_FETCH, 0),
    (VARIANTS, I, WRITE, NONE): (M, None, MissKind.WRITE_FETCH, 1),
    (VARIANTS, I, WRITE, SHARERS): (M, I, MissKind.WRITE_FETCH, 1),
    (VARIANTS, I, WRITE, OWNER): (M, I, MissKind.WRITE_FETCH, 1),
    (VARIANTS, S, WRITE, NONE): (M, None, MissKind.UPGRADE, 1),
    (VARIANTS, S, WRITE, SHARERS): (M, I, MissKind.UPGRADE, 1),
}

#: (request, state another node self-invalidated from) -> whether the
#: miss verifies that self-invalidation correct (the base protocol
#: would have taken the copy). Unverified entries stay in the mask.
#: The requester's own entry always resolves, as premature. Both
#: variants use the same rule.
VERIFIES: Dict[Tuple[str, str], bool] = {
    (READ, S): False,
    (READ, M): True,
    (WRITE, S): True,
    (WRITE, M): True,
}

#: The textbook directory MSI cache controller: (state, event) -> next
#: state, for the node's own read and write and for another node's
#: read (GetS) and write (GetM) of the block.
TEXTBOOK_MSI: Dict[Tuple[str, str], str] = {
    (I, READ): S,
    (I, WRITE): M,
    (S, READ): S,
    (S, WRITE): M,
    (M, READ): M,
    (M, WRITE): M,
    (I, "GetS"): I,
    (I, "GetM"): I,
    (S, "GetS"): S,
    (S, "GetM"): I,
    (M, "GetS"): S,  # write back, keep a read-only copy
    (M, "GetM"): I,
}

#: node roles: the requester, the other holders, and the nodes that
#: self-invalidated earlier (listed in mask insertion order, which is
#: not ascending)
REQUESTER = 0
SHARER_NODES = (3, 5)
OWNER_NODE = 4
MASKED_NODES = (2, 1)
NUM_NODES = 6
ADDRESS = 0x1000
PC = 0x40

_CODE = {None: I, CacheState.SHARED: S, CacheState.EXCLUSIVE: M}


def row(variant: ProtocolVariant, held: str, request: str, others: str):
    for (variants, *key), value in TABLE.items():
        if variant in variants and tuple(key) == (held, request, others):
            return value
    return None


def derived_msi(variant: ProtocolVariant) -> Dict[Tuple[str, str], str]:
    """The table's transitions in :data:`TEXTBOOK_MSI`'s shape."""
    msi = {}
    for held, request in itertools.product((I, S, M), (READ, WRITE)):
        found = row(variant, held, request, NONE)
        msi[held, request] = found[0] if found else held  # hit
    for held, request in itertools.product((I, S, M), (READ, WRITE)):
        event = "GetS" if request == READ else "GetM"
        others = {I: None, S: SHARERS, M: OWNER}[held]
        if others is None:
            msi[held, event] = I
            continue
        # the request comes from a node that does not hold the block
        msi[held, event] = row(variant, I, request, others)[1]
    return msi


class Case(NamedTuple):
    variant: ProtocolVariant
    held: str
    request: str
    others: str
    #: (node, state it self-invalidated from), in insertion order
    mask: Tuple[Tuple[int, str], ...]

    @property
    def id(self) -> str:
        masked = "+".join(
            f"{'req' if node == REQUESTER else node}:{held}"
            for node, held in self.mask
        ) or "empty"
        return (
            f"{self.variant.value}-{self.held}-{self.request}-"
            f"{self.others}-mask:{masked}"
        )


def _masks(held: str, others: str):
    """Every reachable mask for a requester holding ``held`` with
    ``others`` holding the block. An exclusive grant resolves every
    entry, so an owner leaves none; a masked M copy was the only copy,
    so it comes alone; only a requester that holds nothing can be
    masked."""
    yield ()
    if others == OWNER:
        return
    requester = [(REQUESTER, S)] if held == I else []
    for entries in ([(MASKED_NODES[0], S)], [(n, S) for n in MASKED_NODES]):
        yield tuple(entries)
        if requester:
            yield tuple(requester + entries)
    if requester:
        yield tuple(requester)
    if others == NONE and held == I:
        yield ((REQUESTER, M),)
        yield ((MASKED_NODES[0], M),)


CASES: List[Case] = [
    Case(variant, held, request, others, mask)
    for variant in VARIANTS
    for (variants, held, request, others) in TABLE
    if variant in variants
    for mask in _masks(held, others)
]


def _setup(case: Case) -> CoherenceEngine:
    """Reach ``case``'s starting state through accesses and
    self-invalidations only."""
    engine = CoherenceEngine(NUM_NODES, variant=case.variant)
    block = engine.block_of(ADDRESS)
    for node, held in case.mask:
        engine.access(node, PC, ADDRESS, held == M)
    for node, _ in case.mask:
        engine.self_invalidate(node, block)
    if case.others == SHARERS:
        for node in SHARER_NODES:
            engine.access(node, PC, ADDRESS, False)
    elif case.others == OWNER:
        engine.access(OWNER_NODE, PC, ADDRESS, True)
    if case.held == S:
        engine.access(REQUESTER, PC, ADDRESS, False)
    engine.check_invariants()
    return engine


def _holders(others: str) -> Tuple[int, ...]:
    return {NONE: (), SHARERS: SHARER_NODES, OWNER: (OWNER_NODE,)}[others]


def _states(engine: CoherenceEngine) -> Dict[int, Optional[str]]:
    block = engine.block_of(ADDRESS)
    return {
        node: _CODE[engine.cache_state(node, block)]
        for node in range(NUM_NODES)
    }


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_miss_follows_the_table(case: Case) -> None:
    engine = _setup(case)
    block = engine.block_of(ADDRESS)
    bid = engine.intern(block)
    before = engine.entry(block)
    assert _states(engine)[REQUESTER] == case.held
    assert list(before.verification_mask) == [n for n, _ in case.mask]

    requester_next, others_next, kind, bump = row(
        case.variant, case.held, case.request, case.others
    )
    holders = _holders(case.others)
    resolved = [
        node for node, held in case.mask
        if node != REQUESTER and VERIFIES[case.request, held]
    ]
    kept = {
        node: held for node, held in case.mask
        if node != REQUESTER and node not in resolved
    }

    premature, verified, victims, got_kind, version = engine.miss(
        REQUESTER, bid, int(case.request == WRITE)
    )
    assert premature == any(n == REQUESTER for n, _ in case.mask)
    assert verified == tuple(resolved)
    assert victims == (holders if others_next == I else ())
    assert got_kind is kind
    assert version == before.version
    after = engine.entry(block)
    assert after.version == before.version + bump
    expected = dict.fromkeys(range(NUM_NODES), I)
    expected[REQUESTER] = requester_next
    for node in holders:
        expected[node] = others_next
    assert _states(engine) == expected
    assert {
        node: _CODE[held] for node, held in after.verification_mask.items()
    } == kept
    engine.check_invariants()


def test_every_miss_row_is_reached() -> None:
    """Each table row, under each of its variants, has a case."""
    reached = {(c.variant, c.held, c.request, c.others) for c in CASES}
    expected = {
        (variant, *key)
        for (variants, *key) in TABLE
        for variant in variants
    }
    assert reached == expected


def test_downgrade_variant_is_textbook_msi() -> None:
    assert derived_msi(DOWNGRADE) == TEXTBOOK_MSI


def test_invalidate_variant_departs_on_a_read_of_a_modified_block() -> None:
    """The migratory-favouring variant invalidates the writer instead of
    downgrading it; every other transition is MSI's."""
    derived = derived_msi(INVALIDATE)
    differs = {
        key: (TEXTBOOK_MSI[key], derived[key])
        for key in TEXTBOOK_MSI
        if derived[key] != TEXTBOOK_MSI[key]
    }
    assert differs == {(M, "GetS"): (S, I)}
