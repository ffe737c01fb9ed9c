"""Unit tests for the program step language (repro.trace.program)."""

import pytest

from repro.errors import WorkloadError
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramBuilder,
    ProgramSet,
)
from repro.timing.engine import compile_programs
from repro.trace.scheduler import schedule
from repro.workloads import get_workload


def _two_node_set(steps0, steps1):
    p0, p1 = Program(0), Program(1)
    p0.extend(steps0)
    p1.extend(steps1)
    return ProgramSet("t", 2, {0: p0, 1: p1})


class TestProgramSet:
    def test_missing_node_rejected(self):
        with pytest.raises(WorkloadError):
            ProgramSet("t", 2, {0: Program(0)})

    def test_extra_node_rejected(self):
        with pytest.raises(WorkloadError):
            ProgramSet(
                "t", 1, {0: Program(0), 1: Program(1)}
            )

    def test_barrier_count_mismatch_rejected(self):
        ps = _two_node_set([Barrier(1)], [])
        with pytest.raises(WorkloadError):
            ps.validate()

    def test_matched_barriers_accepted(self):
        ps = _two_node_set([Barrier(1)], [Barrier(1)])
        ps.validate()

    def test_release_without_acquire_rejected(self):
        ps = _two_node_set(
            [LockRelease(1, 0x100, 0x10)], []
        )
        with pytest.raises(WorkloadError):
            ps.validate()

    def test_unreleased_lock_rejected(self):
        ps = _two_node_set(
            [LockAcquire(1, 0x100, 0x10, 0x14)], []
        )
        with pytest.raises(WorkloadError):
            ps.validate()

    def test_reacquire_held_lock_rejected(self):
        ps = _two_node_set(
            [
                LockAcquire(1, 0x100, 0x10, 0x14),
                LockAcquire(1, 0x100, 0x10, 0x14),
            ],
            [],
        )
        with pytest.raises(WorkloadError):
            ps.validate()

    def test_balanced_lock_pair_accepted(self):
        ps = _two_node_set(
            [
                LockAcquire(1, 0x100, 0x10, 0x14),
                Access(0x20, 0x200, True),
                LockRelease(1, 0x100, 0x18),
            ],
            [],
        )
        ps.validate()

    @pytest.mark.parametrize("spins", [0, -1])
    def test_fixed_spins_below_one_rejected(self, spins):
        """A test&test&set acquire reads the flag at least once, so a
        fixed spin count below 1 would make the engines disagree."""
        ps = _two_node_set(
            [
                LockAcquire(1, 0x100, 0x10, 0x14, fixed_spins=spins),
                LockRelease(1, 0x100, 0x18),
            ],
            [],
        )
        with pytest.raises(WorkloadError, match=f"fixed_spins={spins}"):
            ps.validate()

    def test_zero_lock_spins_fails_at_build(self):
        with pytest.raises(WorkloadError, match="fixed_spins=0"):
            get_workload("appbt", "tiny", lock_spins=0).build()

    def test_total_steps(self):
        ps = _two_node_set(
            [Access(0x1, 0x20, False)], [Access(0x2, 0x40, True)]
        )
        assert ps.total_steps() == 2


class TestValidateOnce:
    def test_a_built_set_is_validated_once(self, monkeypatch):
        """The build validates; scheduling and compiling the same
        object reuse that pass instead of walking every step again."""
        calls = []
        original = ProgramSet.validate

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(ProgramSet, "validate", counted)
        programs = get_workload("em3d", "tiny").build()
        schedule(programs, 1, 5)
        compile_programs(programs, 5, programs.num_nodes)
        assert len(calls) == 1 and calls[0] is programs

    def test_a_malformed_set_raises_from_each_compile(self):
        ps = _two_node_set([Barrier(1)], [])
        with pytest.raises(WorkloadError, match="barrier counts"):
            schedule(ps, 1, 5)
        with pytest.raises(WorkloadError, match="barrier counts"):
            compile_programs(ps, 5, 2)


class TestProgram:
    def test_append_and_len(self):
        p = Program(0)
        p.append(Access(0x1, 0x20, False))
        assert len(p) == 1

    def test_access_defaults(self):
        a = Access(0x1, 0x20, False)
        assert a.work == 0


class TestProgramBuilder:
    def test_constructors_share_equal_steps_across_nodes(self):
        table = {}
        b0, b1 = ProgramBuilder(table), ProgramBuilder(table)
        for b in (b0, b1):
            b.acquire(1, 0x100, 0x10, 0x14, fixed_spins=2)
            b.access(0x20, 0x200, True, work=4)
            b.release(1, 0x100, 0x18)
            b.barrier(7)
        assert all(x is y for x, y in zip(b0.steps, b1.steps))
        assert b0.steps == [
            LockAcquire(1, 0x100, 0x10, 0x14, 2),
            Access(0x20, 0x200, True, 4),
            LockRelease(1, 0x100, 0x18),
            Barrier(7),
        ]
        assert len(table) == 4

    def test_differing_fields_make_distinct_steps(self):
        b = ProgramBuilder({})
        b.access(0x20, 0x200, True)
        b.access(0x20, 0x200, True, work=4)
        b.acquire(1, 0x100, 0x10, 0x14)
        b.acquire(1, 0x100, 0x10, 0x14, fixed_spins=1)
        assert len({id(step) for step in b.steps}) == 4

    def test_append_interns_a_step_built_elsewhere(self):
        table = {}
        b = ProgramBuilder(table)
        b.access(0x20, 0x200, False)
        outside = Access(0x20, 0x200, False)
        b.append(outside)
        assert b.steps[1] is b.steps[0]
        fresh = Barrier(3)
        b.append(fresh)
        b.barrier(3)
        assert b.steps[2] is fresh and b.steps[3] is fresh
