"""Unit tests for the deterministic interleaver (repro.trace.scheduler)."""

import pytest

from repro.core import NullPolicy
from repro.errors import SchedulingError
from repro.timing import SystemConfig, TimingSimulator
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from repro.trace.scheduler import interleave


def _ps(progs):
    return ProgramSet("t", len(progs), {i: p for i, p in enumerate(progs)})


def _accesses(stream):
    return [e for e in stream if isinstance(e, MemoryAccess)]


class TestBasics:
    def test_all_accesses_emitted_once(self):
        p0 = Program(0)
        p1 = Program(1)
        for i in range(5):
            p0.append(Access(0x10 + i, 0x100 * (i + 1), False))
            p1.append(Access(0x50 + i, 0x900 * (i + 1), True))
        acc = _accesses(interleave(_ps([p0, p1])))
        assert len(acc) == 10
        assert sum(1 for a in acc if a.node == 0) == 5

    def test_per_node_order_preserved(self):
        p0 = Program(0)
        for i in range(8):
            p0.append(Access(0x10 + i, 0x100, False))
        p1 = Program(1)
        p1.append(Access(0x99, 0x200, True))
        acc = _accesses(interleave(_ps([p0, p1])))
        pcs0 = [a.pc for a in acc if a.node == 0]
        assert pcs0 == [0x10 + i for i in range(8)]

    def test_round_robin_alternates(self):
        p0, p1 = Program(0), Program(1)
        for i in range(3):
            p0.append(Access(0x1, 0x100, False))
            p1.append(Access(0x2, 0x200, False))
        acc = _accesses(interleave(_ps([p0, p1])))
        assert [a.node for a in acc] == [0, 1, 0, 1, 0, 1]

    def test_quantum_groups_steps(self):
        p0, p1 = Program(0), Program(1)
        for i in range(4):
            p0.append(Access(0x1, 0x100, False))
            p1.append(Access(0x2, 0x200, False))
        acc = _accesses(interleave(_ps([p0, p1]), quantum=2))
        assert [a.node for a in acc] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_deterministic(self):
        def build():
            p0, p1 = Program(0), Program(1)
            for i in range(6):
                p0.append(Access(0x10 + i, 0x100 + 32 * i, i % 2 == 0))
                p1.append(Access(0x60 + i, 0x100 + 32 * i, i % 3 == 0))
            p0.append(Barrier(1))
            p1.append(Barrier(1))
            return _ps([p0, p1])

        first = [(type(e).__name__, getattr(e, "pc", None), e.node)
                 for e in interleave(build())]
        second = [(type(e).__name__, getattr(e, "pc", None), e.node)
                  for e in interleave(build())]
        assert first == second

    def test_bad_quantum_rejected(self):
        with pytest.raises(SchedulingError, match="quantum must be >= 1"):
            interleave(_ps([Program(0), Program(1)]), quantum=0)


class TestBarriers:
    def test_barrier_blocks_until_all_arrive(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x1, 0x100, True))
        p0.append(Barrier(1))
        p0.append(Access(0x2, 0x100, True))
        p1.append(Access(0x3, 0x200, False))
        p1.append(Access(0x4, 0x200, False))
        p1.append(Access(0x5, 0x200, False))
        p1.append(Barrier(1))
        stream = list(interleave(_ps([p0, p1])))
        acc = _accesses(stream)
        # node 0's post-barrier access (pc 0x2) must come after all of
        # node 1's pre-barrier accesses.
        idx_post = next(i for i, a in enumerate(acc) if a.pc == 0x2)
        idx_pre = max(i for i, a in enumerate(acc) if a.pc in (0x3, 0x4, 0x5))
        assert idx_post > idx_pre

    def test_barrier_emits_sync_boundary(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Barrier(7))
        p1.append(Barrier(7))
        syncs = [e for e in interleave(_ps([p0, p1]))
                 if isinstance(e, SyncBoundary)]
        assert len(syncs) == 2
        assert all(s.kind is SyncKind.BARRIER and s.sync_id == 7
                   for s in syncs)


class TestLocks:
    def _lock_ps(self, fixed_spins):
        progs = []
        for node in range(3):
            p = Program(node)
            p.append(LockAcquire(1, 0x1000, 0x10, 0x14,
                                 fixed_spins=fixed_spins))
            p.append(Access(0x20, 0x2000, True))
            p.append(LockRelease(1, 0x1000, 0x18))
            progs.append(p)
        return _ps(progs)

    def test_mutual_exclusion_fifo(self):
        stream = list(interleave(self._lock_ps(fixed_spins=1)))
        order = [e.node for e in stream
                 if isinstance(e, SyncBoundary)
                 and e.kind is SyncKind.LOCK_ACQUIRE]
        assert order == [0, 1, 2]

    def test_critical_section_serialized(self):
        stream = list(interleave(self._lock_ps(fixed_spins=1)))
        events = [e for e in stream if isinstance(e, SyncBoundary)]
        kinds = [(e.kind, e.node) for e in events]
        # acquire/release strictly alternate
        for i in range(0, len(kinds), 2):
            assert kinds[i][0] is SyncKind.LOCK_ACQUIRE
            assert kinds[i + 1][0] is SyncKind.LOCK_RELEASE
            assert kinds[i][1] == kinds[i + 1][1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fixed_spins_constant_access_count(self, k):
        """fixed_spins=k -> exactly k spin reads + 1 write per acquire,
        regardless of contention (appbt's repeatable lock traces), and
        the timing engine executes the same accesses."""
        ps = self._lock_ps(fixed_spins=k)
        stream = list(interleave(ps))
        for node in range(3):
            spins = sum(
                1 for e in stream
                if isinstance(e, MemoryAccess)
                and e.node == node and e.pc == 0x14
            )
            assert spins == k
        timing = TimingSimulator(
            lambda n: NullPolicy(), SystemConfig(num_nodes=3)
        ).run(ps)
        assert timing.accesses == len(_accesses(stream)) == 3 * (k + 3)

    def test_variable_spins_depend_on_contention(self):
        stream = list(interleave(self._lock_ps(fixed_spins=None)))
        spin_counts = [
            sum(1 for e in stream
                if isinstance(e, MemoryAccess)
                and e.node == node and e.pc == 0x14)
            for node in range(3)
        ]
        # the first holder spins once; later holders spin more
        assert spin_counts[0] == 1
        assert spin_counts[2] >= spin_counts[0]

    def test_lock_traffic_targets_lock_block(self):
        stream = list(interleave(self._lock_ps(fixed_spins=1)))
        lock_writes = [
            e for e in stream
            if isinstance(e, MemoryAccess) and e.address == 0x1000
            and e.is_write
        ]
        # 3 test&set + 3 release writes
        assert len(lock_writes) == 6
