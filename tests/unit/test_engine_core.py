"""The stall diagnostics both timing cores attach to a deadlocked
run, and their shared constructor checks."""

import pytest

from repro.errors import SimulationError
from repro.runner.spec import PolicySpec
from repro.timing import TimingSimulator
from repro.trace.program import (
    Access,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from tests.oracle import ReferenceTimingSimulator

CORES = (ReferenceTimingSimulator, TimingSimulator)


def deadlocked_programs() -> ProgramSet:
    """Two nodes acquire two locks in opposite order — the classic
    deadlock. Each lock is released by its acquiring node, so
    ``validate()`` passes and the stall only surfaces at run time."""
    a = Program(0)
    a.append(LockAcquire(1, 0x2000, 0x500, 0x504))
    a.append(Access(0x510, 0x3000, True, work=50))
    a.append(LockAcquire(2, 0x2040, 0x520, 0x524))
    a.append(LockRelease(2, 0x2040, 0x528))
    a.append(LockRelease(1, 0x2000, 0x508))
    b = Program(1)
    b.append(LockAcquire(2, 0x2040, 0x540, 0x544))
    b.append(Access(0x550, 0x3040, True, work=50))
    b.append(LockAcquire(1, 0x2000, 0x560, 0x564))
    b.append(LockRelease(1, 0x2000, 0x568))
    b.append(LockRelease(2, 0x2040, 0x548))
    return ProgramSet("deadlock", 2, {0: a, 1: b})


class TestStallDiagnostics:
    @pytest.mark.parametrize("core", CORES)
    def test_deadlock_reports_time_and_node_status(self, core):
        engine = core(PolicySpec(name="base").build)
        with pytest.raises(SimulationError) as exc:
            engine.run(deadlocked_programs())
        message = str(exc.value)
        # the diagnostics must make the deadlock debuggable from the
        # exception alone: what stalled, when, and where each node was
        assert "stalled" in message
        assert "t=" in message
        assert "2 unfinished node(s)" in message
        assert "node 0:" in message and "node 1:" in message
        assert "/5" in message  # per-node step progress

    @pytest.mark.parametrize("core", CORES)
    def test_negative_delay_rejected(self, core):
        with pytest.raises(SimulationError):
            core(PolicySpec(name="base").build, si_fire_delay=-1)
