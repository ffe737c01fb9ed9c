"""Property-based tests for the interleaving scheduler.

Besides the scheduling invariants, the shipped schedule loop, which
writes the compiled stream directly, is checked against the readable
reference generator in ``tests/oracle/scheduler.py``: on random
programs with locks and barriers, at several quanta and block sizes,
the shipped stream must equal the event writer's stream over the
reference's events, array for array and table for table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.events import MemoryAccess
from repro.trace.program import Access, Barrier, Program, ProgramSet
from repro.trace.scheduler import (
    compile_stream,
    decode_stream,
    interleave,
    schedule,
)
from repro.workloads import WORKLOAD_NAMES, get_workload
from tests.oracle.scheduler import interleave as reference_interleave
from tests.property.test_engine_equivalence_props import mixed_programs


@st.composite
def barrier_consistent_programs(draw):
    """Random per-node programs with equal barrier counts."""
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    num_phases = draw(st.integers(min_value=1, max_value=4))
    progs = {}
    for node in range(num_nodes):
        p = Program(node)
        for phase in range(num_phases):
            k = draw(st.integers(min_value=0, max_value=6))
            for i in range(k):
                pc = draw(st.integers(min_value=4, max_value=2**20))
                blk = draw(st.integers(min_value=0, max_value=7))
                wr = draw(st.booleans())
                p.append(Access(pc, 0x1000 + 32 * blk, wr))
            p.append(Barrier(phase))
        progs[node] = p
    return ProgramSet("random", num_nodes, progs)


@given(barrier_consistent_programs())
@settings(max_examples=60, deadline=None)
def test_every_access_emitted_exactly_once(ps):
    emitted = {}
    for ev in interleave(ps):
        if isinstance(ev, MemoryAccess):
            emitted.setdefault(ev.node, []).append(
                (ev.pc, ev.address, ev.is_write)
            )
    for node, prog in ps.programs.items():
        expected = [
            (s.pc, s.address, s.is_write)
            for s in prog.steps
            if isinstance(s, Access)
        ]
        assert emitted.get(node, []) == expected


@given(barrier_consistent_programs())
@settings(max_examples=40, deadline=None)
def test_interleaving_is_deterministic(ps):
    def fingerprint():
        return [
            (type(e).__name__, e.node, getattr(e, "pc", -1))
            for e in interleave(ps)
        ]

    assert fingerprint() == fingerprint()


@given(barrier_consistent_programs(),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_quantum_preserves_per_node_order(ps, quantum):
    seen = {}
    for ev in interleave(ps, quantum=quantum):
        if isinstance(ev, MemoryAccess):
            seen.setdefault(ev.node, []).append(ev.pc)
    for node, prog in ps.programs.items():
        expected = [s.pc for s in prog.steps if isinstance(s, Access)]
        assert seen.get(node, []) == expected


@given(barrier_consistent_programs())
@settings(max_examples=40, deadline=None)
def test_barrier_phases_do_not_overlap(ps):
    """No node's phase-k access may appear after another node's
    phase-(k+1) access has appeared... i.e. barriers are barriers."""
    phase = {node: 0 for node in ps.programs}
    max_started = 0
    for ev in interleave(ps):
        if isinstance(ev, MemoryAccess):
            max_started = max(max_started, phase[ev.node])
            # a node cannot still be in an earlier phase than one that
            # has completed globally
            assert phase[ev.node] >= max_started - 1
        else:  # SyncBoundary (barrier arrival)
            phase[ev.node] += 1


def _layout(stream):
    return (
        stream.name, stream.num_nodes, stream.block_shift,
        stream.events.typecode, list(stream.events),
        stream.ids.typecode, list(stream.ids),
        stream.table, stream.blocks, stream.syncs, stream.accesses,
    )


def _assert_matches_reference(ps, quantum, block_shift):
    shipped = schedule(ps, quantum, block_shift)
    reference = compile_stream(
        reference_interleave(ps, quantum=quantum), ps.num_nodes,
        block_shift, name=ps.name,
    )
    assert list(decode_stream(shipped)) == list(decode_stream(reference))
    assert _layout(shipped) == _layout(reference)


@given(
    st.one_of(mixed_programs(), barrier_consistent_programs()),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0, 5]),
)
@settings(max_examples=200, deadline=None)
def test_schedule_matches_the_reference_scheduler(ps, quantum, block_shift):
    _assert_matches_reference(ps, quantum, block_shift)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_workloads_match_the_reference_scheduler(workload):
    ps = get_workload(workload, "tiny").build()
    for quantum, block_shift in ((1, 5), (2, 0)):
        _assert_matches_reference(ps, quantum, block_shift)
