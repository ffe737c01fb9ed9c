"""Property-based equivalence of the accuracy simulator and its oracle.

Hypothesis drives random (legal) small ProgramSets — plain accesses,
barriers, and contended locks, from the timing property's
``mixed_programs()`` — through the readable reference simulator in
``tests/oracle/`` with the reference policies and the shipped
:class:`AccuracySimulator` with the package's, for every policy, the
ablations' LTP variants and the two-pass oracle run under both protocol
variants, and asserts the canonical digests of the two
``AccuracyReport``s are equal. A third property drives one node's
policy hook by hook, so knobs the small programs rarely stress (the
capped tables' LRU order) are compared call by call.
The tiny-grid digests pin the nine workloads' inputs; this covers the
interleavings, verification races and sync bursts nobody enumerated.
A fourth property runs the block-local policies, which replay a folded
stream, on programs that write one random per-block template onto
several blocks under random node permutations, so their histories
fold into classes larger than one (``mixed_programs()`` rarely makes
any).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.ablations import VARIANT_POLICIES
from repro.protocol.states import MissKind, ProtocolVariant
from repro.runner.spec import POLICY_NAMES, PolicySpec
from repro.sim import AccuracySimulator
from repro.sim.functional import DEFAULT_BLOCK_SHIFT, folded_stream
from repro.trace.events import SyncKind
from repro.trace.program import Access, Barrier, Program, ProgramSet
from tests.integration.test_report_digests import digest
from tests.oracle import ReferenceAccuracySimulator, reference_factory
from tests.property.test_engine_equivalence_props import mixed_programs

VARIANTS = list(ProtocolVariant)

#: every policy with its defaults, plus the LTP knobs the ablations
#: sweep (the capped tables take the LRU path of the fire test)
SPECS = {name: PolicySpec(name=name) for name in POLICY_NAMES}
SPECS.update(
    (f"ltp-{label}", spec)
    for label, spec in VARIANT_POLICIES.items()
    if spec is not None and label != "ltp"
)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy", list(SPECS))
@given(ps=mixed_programs())
@settings(max_examples=25, deadline=None)
def test_run_matches_the_oracle(ps, policy, variant):
    spec = SPECS[policy]
    ref = ReferenceAccuracySimulator(reference_factory(spec), variant=variant)
    fast = AccuracySimulator(spec.build, variant=variant)
    assert digest(fast.run(ps)) == digest(ref.run(ps))


@pytest.mark.parametrize("variant", VARIANTS)
@given(ps=mixed_programs())
@settings(max_examples=25, deadline=None)
def test_run_oracle_matches_the_oracle(ps, variant):
    spec = PolicySpec(name="base")
    ref = ReferenceAccuracySimulator(reference_factory(spec), variant=variant)
    fast = AccuracySimulator(spec.build, variant=variant)
    assert digest(fast.run_oracle(ps)) == digest(ref.run_oracle(ps))


#: the hooks a call may make; misses weigh triple, since DSI selects a
#: block on its second fetch and shows its burst order only with several
HOOKS = (
    "hit", "miss", "miss", "miss", "invalidation", "verified", "premature",
    "sync",
)
KINDS = list(MissKind)
#: blocks, pc indices and versions a call may name
FEW = 4


def hook_call(code):
    """One hook call packed in an integer (cheap for hypothesis to draw
    by the hundred): (hook, block id, pc index, miss kind, version)."""
    code, hook = divmod(code, len(HOOKS))
    code, bid = divmod(code, FEW)
    code, pc_index = divmod(code, FEW)
    version, kind = divmod(code, len(KINDS))
    return HOOKS[hook], bid, pc_index, KINDS[kind], version


HOOK_CALLS = st.lists(
    st.integers(
        min_value=0, max_value=len(HOOKS) * FEW**3 * len(KINDS) - 1
    ),
    min_size=40,
    max_size=120,
)


@pytest.mark.parametrize("policy", list(SPECS))
@given(
    calls=HOOK_CALLS,
    blocks=st.permutations([0x10, 0x24, 0x38, 0x4C]),
)
@settings(max_examples=25, deadline=None)
def test_policy_hooks_match_the_reference(policy, calls, blocks):
    """One node's policy driven hook by hook: the package's, bound to a
    table whose id order is not block order, answers every call as the
    reference policy does for the block numbers, and ends with an equal
    storage report (``per_block_entries`` order included)."""
    fast = SPECS[policy].build(0)
    fast.bind(blocks)
    ref = reference_factory(SPECS[policy])(0)
    for hook, bid, pc_index, kind, version in map(hook_call, calls):
        block, pc = blocks[bid], 0x100 + 4 * pc_index
        if hook == "hit":
            assert fast.on_access(bid, pc, False, None, None) is (
                ref.on_access(block, pc, False, None, None).self_invalidate
            )
        elif hook == "miss":
            start = kind is not MissKind.UPGRADE
            assert fast.on_access(bid, pc, start, kind, version) is (
                ref.on_access(block, pc, start, kind, version)
                .self_invalidate
            )
        elif hook == "invalidation":
            fast.on_invalidation(bid)
            ref.on_invalidation(block)
        elif hook == "verified":
            fast.on_verified_correct(bid)
            ref.on_verified_correct(block)
        elif hook == "premature":
            fast.on_premature(bid)
            ref.on_premature(block)
        else:
            burst = fast.on_sync(SyncKind.BARRIER, pc_index)
            assert [blocks[b] for b in burst] == ref.on_sync(
                SyncKind.BARRIER, pc_index
            )
    assert fast.storage_report() == ref.storage_report()


#: the specs whose policies are block-local: every encoder, confidence
#: setting and capped table of ``ltp``, plus ``last-pc`` and ``base``
BLOCK_LOCAL = [
    name for name in SPECS if name not in ("dsi", "ltp-global", "hybrid")
]

#: the pcs a template draws from; SPMD code touches a block at the
#: same pcs whichever node it runs on
PCS = st.sampled_from([0x40, 0x44, 0x48, 0x4C])


@st.composite
def templated_programs(draw):
    """A random per-block template written onto several blocks, each
    under its own permutation of the nodes, plus random traffic on
    blocks of their own.

    A template step is one node slot's run of accesses; each step ends
    with a barrier, so every templated block's history is the template
    with the slots renamed by its permutation, and all of them fold
    into one class. The template repeats for a few rounds so the
    predictors learn, fire and get verified."""
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    nodes = range(num_nodes)
    template = draw(st.lists(
        st.tuples(
            st.sampled_from(nodes),
            st.lists(st.tuples(PCS, st.booleans()), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=5,
    ))
    perms = draw(st.lists(st.permutations(nodes), min_size=2, max_size=4))
    rounds = draw(st.integers(min_value=1, max_value=4))
    progs = {node: Program(node) for node in nodes}
    barrier = 0
    for _ in range(rounds):
        for slot, touches in template:
            for block, perm in enumerate(perms):
                for pc, write in touches:
                    progs[perm[slot]].append(
                        Access(pc, 0x1000 + 32 * block, write)
                    )
            for node in nodes:
                for _ in range(draw(st.integers(min_value=0, max_value=2))):
                    block = draw(st.integers(min_value=0, max_value=2))
                    progs[node].append(Access(
                        draw(PCS), 0x3000 + 32 * block, draw(st.booleans())
                    ))
            for prog in progs.values():
                prog.append(Barrier(barrier))
            barrier += 1
    return ProgramSet("templated", num_nodes, progs)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy", BLOCK_LOCAL)
@given(ps=templated_programs())
@settings(max_examples=20, deadline=None)
def test_folded_run_matches_the_oracle(ps, policy, variant):
    spec = SPECS[policy]
    ref = ReferenceAccuracySimulator(reference_factory(spec), variant=variant)
    fast = AccuracySimulator(spec.build, variant=variant)
    assert digest(fast.run(ps)) == digest(ref.run(ps))
    assert max(folded_stream(ps, 1, DEFAULT_BLOCK_SHIFT).weights) > 1
