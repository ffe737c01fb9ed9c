"""Property-based equivalence of the timing engine and its oracle.

Hypothesis drives random (legal) small ProgramSets — plain accesses,
barriers, and contended locks — through the reference core in
``tests/oracle/`` and the shipped engine under randomly drawn protocol
variants, forwarding, and ``si_fire_delay`` settings, and asserts the
resulting ``TimingReport``s pickle byte-identically. The parametrized
conformance suite proves the paper grid; this proves the long tail of
interleavings nobody thought to enumerate.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.states import ProtocolVariant
from repro.runner.spec import PolicySpec
from repro.timing import SystemConfig, TimingSimulator
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from tests.oracle import ReferenceTimingSimulator


@st.composite
def mixed_programs(draw):
    """Random ProgramSets mixing accesses, barriers, and a lock every
    node contends on (acquire/release stay node-local and paired, so
    ``validate()`` always passes)."""
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    num_phases = draw(st.integers(min_value=1, max_value=3))
    progs = {}
    for node in range(num_nodes):
        p = Program(node)
        for phase in range(num_phases):
            if draw(st.booleans()):
                # a critical section on the shared lock: real memory
                # traffic on the flag block plus a protected write
                p.append(
                    LockAcquire(
                        lock_id=1,
                        address=0x2000,
                        pc=0x500,
                        spin_pc=0x504,
                        fixed_spins=draw(
                            st.one_of(
                                st.none(),
                                st.integers(min_value=0, max_value=3),
                            )
                        ),
                    )
                )
                p.append(Access(0x510, 0x2100, True))
                p.append(LockRelease(lock_id=1, address=0x2000, pc=0x508))
            for _ in range(draw(st.integers(min_value=0, max_value=5))):
                blk = draw(st.integers(min_value=0, max_value=5))
                p.append(
                    Access(
                        0x40 + 4 * node,
                        0x1000 + 32 * blk,
                        draw(st.booleans()),
                        work=draw(st.integers(min_value=0, max_value=60)),
                    )
                )
            p.append(Barrier(phase))
        progs[node] = p
    return ProgramSet("random-mixed", num_nodes, progs)


ENGINE_KNOBS = st.fixed_dictionaries(
    {
        "variant": st.sampled_from(list(ProtocolVariant)),
        "forwarding": st.booleans(),
        "si_fire_delay": st.sampled_from([0, 1, 40, 150, 700]),
    }
)

POLICIES = st.sampled_from(("base", "dsi", "last-pc", "ltp", "hybrid"))


@given(mixed_programs(), ENGINE_KNOBS, POLICIES)
@settings(max_examples=60, deadline=None)
def test_cores_byte_identical(ps, knobs, policy):
    spec = PolicySpec(name=policy)
    cfg = SystemConfig(num_nodes=ps.num_nodes)
    reports = [
        pickle.dumps(core(spec.build, cfg, **knobs).run(ps))
        for core in (ReferenceTimingSimulator, TimingSimulator)
    ]
    assert reports[0] == reports[1]


@given(mixed_programs(), st.sampled_from([0, 90, 400]))
@settings(max_examples=30, deadline=None)
def test_fast_core_accounting_identities(ps, delay):
    """The shipped engine independently satisfies the SI accounting
    identity (not just equality with the reference)."""
    spec = PolicySpec(name="ltp")
    rep = TimingSimulator(
        spec.build,
        SystemConfig(num_nodes=ps.num_nodes),
        si_fire_delay=delay,
    ).run(ps)
    s = rep.selfinval
    assert (
        s.timely_correct + s.late_correct + s.premature + s.unresolved
        == s.fired
    )
    expected = sum(
        1
        for p in ps.programs.values()
        for step in p.steps
        if isinstance(step, Access)
    )
    # lock traffic adds accesses beyond the explicit Access steps
    assert rep.accesses >= expected
    assert rep.hits + rep.coherence_misses == rep.accesses
