"""Engine-level tests for the delayed self-invalidation knob."""

import pickle

import pytest

from repro.core import NullPolicy, PerBlockLTP
from repro.core.base import (
    DECISION_FIRE,
    DECISION_KEEP,
    SelfInvalidationPolicy,
)
from repro.core.confidence import ConfidenceConfig
from repro.errors import SimulationError
from repro.timing import SystemConfig, TimingSimulator
from repro.trace.program import Access, Barrier, Program, ProgramSet
from tests.conftest import addr, producer_consumer
from tests.oracle import ReferenceTimingSimulator

FAST = ConfidenceConfig(initial=3, predict_threshold=3)


class TestSiFireDelay:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            TimingSimulator(lambda n: PerBlockLTP(), si_fire_delay=-1)

    def test_zero_delay_identical_to_default(self):
        ps = producer_consumer(iterations=12)
        a = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), si_fire_delay=0
        ).run(ps)
        b = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST)
        ).run(ps)
        assert a.execution_cycles == b.execution_cycles
        assert a.selfinval.fired == b.selfinval.fired

    def test_huge_delay_suppresses_firing(self):
        """With the issue delayed past the consumer's arrival, the copy
        is externally invalidated first and the SI is dropped at issue
        time — fired count collapses toward zero."""
        ps = producer_consumer(iterations=12)
        prompt = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST)
        ).run(ps)
        delayed = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST),
            si_fire_delay=50_000,
        ).run(ps)
        assert delayed.selfinval.fired < prompt.selfinval.fired

    def test_delay_never_breaks_accounting(self):
        ps = producer_consumer(iterations=12)
        rep = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST),
            config=SystemConfig(num_nodes=2),
            si_fire_delay=700,
        ).run(ps)
        s = rep.selfinval
        assert s.timely_correct + s.late_correct + s.premature + \
            s.unresolved == s.fired


class FireOnce(SelfInvalidationPolicy):
    """Fires a self-invalidation for the very first access it sees,
    then stays quiet — the minimal trigger for the delayed-fire race."""

    name = "fire-once"

    def __init__(self):
        self.fired = False

    def on_access(self, block, pc, trace_start, miss_kind, version):
        if not self.fired:
            self.fired = True
            return DECISION_FIRE
        return DECISION_KEEP


def refetch_race_programs() -> ProgramSet:
    """Node 0 touches block B (arming a delayed fire), node 1's write
    invalidates the copy, node 0 refetches *inside* the delay window,
    then reads again after the stale fire's due time."""
    B = 0x40
    a = Program(0)
    b = Program(1)
    a.append(Access(0x100, addr(B), False))       # arms the delayed SI
    a.append(Barrier(0)), b.append(Barrier(0))
    b.append(Access(0x200, addr(B), True))        # external invalidation
    a.append(Barrier(1)), b.append(Barrier(1))
    a.append(Access(0x104, addr(B), False))       # refetch, new copy
    a.append(Barrier(2)), b.append(Barrier(2))
    # a filler access to a private block burns work >> delay, so the
    # probe below *issues* long after the stale fire's due time
    a.append(Access(0x10C, addr(0x80), False, work=40_000))
    # the probe: if the stale fire wrongly evicted the refetched
    # copy, this read misses
    a.append(Access(0x108, addr(B), False))
    return ProgramSet("refetch-race", 2, {0: a, 1: b})


class TestFireEpochRace:
    """Regression: a delayed fire armed against one copy must not
    evict the *next* copy installed by a refetch inside the delay
    window. The fire is bound to the copy's epoch; the external
    invalidation retires the epoch and the stale fire is dropped."""

    DELAY = 15_000

    def _factory(self, node):
        return FireOnce() if node == 0 else NullPolicy()

    @pytest.mark.parametrize(
        "core", [ReferenceTimingSimulator, TimingSimulator]
    )
    def test_stale_fire_spares_the_refetched_copy(self, core):
        rep = core(
            self._factory,
            SystemConfig(num_nodes=2),
            si_fire_delay=self.DELAY,
        ).run(refetch_race_programs())
        # node 0's final read must be the run's one hit: the copy it
        # refetched is still present when the access issues. Before
        # the epoch guard, the stale fire evicted it (hits == 0).
        assert rep.hits == 1
        # and the stale fire itself was dropped at issue time, not
        # counted as fired
        assert rep.selfinval.fired == 0

    def test_cores_agree_on_the_race(self):
        reports = [
            pickle.dumps(
                core(
                    self._factory,
                    SystemConfig(num_nodes=2),
                    si_fire_delay=self.DELAY,
                ).run(refetch_race_programs())
            )
            for core in (ReferenceTimingSimulator, TimingSimulator)
        ]
        assert reports[0] == reports[1]

    def test_zero_delay_unaffected(self):
        """Without a delay window there is no race: the fire lands
        synchronously on the copy the policy decided for."""
        rep = TimingSimulator(
            self._factory, SystemConfig(num_nodes=2), si_fire_delay=0
        ).run(refetch_race_programs())
        assert rep.selfinval.fired == 1
