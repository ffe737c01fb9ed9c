"""The reference interleaving scheduler, kept as a test oracle.

The functional coherence simulator needs one global order of memory
accesses. This scheduler executes the per-node programs round-robin
(``quantum`` steps per node per rotation), honouring barriers (all nodes
must arrive before any proceeds) and FIFO locks, and yields the resulting
:class:`~repro.trace.events.MemoryAccess` / SyncBoundary stream.

The interleaving is a pure function of the programs and the quantum, so
every predictor configuration in an experiment observes the identical
stream — accuracy differences are attributable to the predictors alone.

Lock traffic is made visible to predictors as real accesses to the lock's
block, test&test&set style:

* while queued with ``fixed_spins=None``, a node emits one spin read per
  rotation (count varies with contention — raytrace's unpredictable
  workpool lock);
* with ``fixed_spins=k`` the node emits exactly ``k`` spin reads per
  acquisition no matter the contention (repeatable traces — appbt's
  regular pipelined spin-locks);
* acquisition itself is a store to the lock block, as is the release.

The package ships :func:`repro.trace.scheduler.schedule`, a flat loop
that writes the same schedule straight into the replay-ready compiled
stream. This generator is its reference: the reference accuracy
simulator interleaves through it, and
``tests/property/test_scheduler_props.py`` requires the shipped stream
to equal :func:`repro.trace.scheduler.compile_stream` over this
scheduler's events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Union

from repro.errors import SchedulingError
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    ProgramSet,
)

StreamEvent = Union[MemoryAccess, SyncBoundary]


@dataclass
class _LockState:
    holder: Optional[int] = None
    queue: Deque[int] = field(default_factory=deque)


@dataclass
class _NodeState:
    index: int = 0  # next step to execute
    at_barrier: bool = False
    waiting_lock: Optional[int] = None
    spins_emitted: int = 0  # spin reads emitted for the pending acquire
    finished: bool = False


class InterleavingScheduler:
    """Round-robin interleaver over a :class:`ProgramSet`.

    Args:
        programs: the workload build to execute.
        quantum: steps a runnable node executes per rotation (>=1).
            Larger quanta approximate coarser-grained multiprogramming;
            the default of 1 gives the finest deterministic interleave.
    """

    def __init__(self, programs: ProgramSet, quantum: int = 1) -> None:
        if quantum < 1:
            raise SchedulingError(f"quantum must be >= 1, got {quantum}")
        programs.validate()
        self._programs = programs
        self._quantum = quantum

    def run(self) -> Iterator[StreamEvent]:
        """Yield the global event stream until every program completes."""
        progs = self._programs.programs
        n = self._programs.num_nodes
        nodes = {i: _NodeState() for i in range(n)}
        locks: Dict[int, _LockState] = {}
        barrier_waiters: List[int] = []

        def lock_state(lock_id: int) -> _LockState:
            return locks.setdefault(lock_id, _LockState())

        pending = n  # unfinished nodes
        while pending > 0:
            progressed = False
            for node in range(n):
                st = nodes[node]
                if st.finished:
                    continue
                steps = progs[node].steps

                if st.at_barrier:
                    continue  # released collectively below

                if st.waiting_lock is not None:
                    step = steps[st.index]
                    assert isinstance(step, LockAcquire)
                    ls = lock_state(st.waiting_lock)
                    if ls.holder is None and ls.queue[0] == node:
                        ls.queue.popleft()
                        ls.holder = node
                        yield from self._emit_acquire(node, step, st)
                        st.waiting_lock = None
                        st.index += 1
                        progressed = True
                    else:
                        # Still queued: test&test&set re-read, one per
                        # rotation, unless the spin count is fixed and
                        # already exhausted.
                        if (
                            step.fixed_spins is None
                            or st.spins_emitted < step.fixed_spins
                        ):
                            st.spins_emitted += 1
                            yield MemoryAccess(
                                node, step.spin_pc, step.address, False
                            )
                            progressed = True
                    continue

                executed = 0
                while executed < self._quantum and not st.finished:
                    if st.index >= len(steps):
                        st.finished = True
                        pending -= 1
                        progressed = True
                        break
                    step = steps[st.index]
                    if isinstance(step, Access):
                        yield MemoryAccess(
                            node, step.pc, step.address, step.is_write
                        )
                        st.index += 1
                        executed += 1
                        progressed = True
                    elif isinstance(step, Barrier):
                        yield SyncBoundary(
                            node, SyncKind.BARRIER, step.barrier_id
                        )
                        st.at_barrier = True
                        barrier_waiters.append(node)
                        st.index += 1
                        progressed = True
                        break
                    elif isinstance(step, LockAcquire):
                        ls = lock_state(step.lock_id)
                        if ls.holder is None and not ls.queue:
                            ls.holder = node
                            st.spins_emitted = 0
                            yield from self._emit_acquire(node, step, st)
                            st.index += 1
                            executed += 1
                            progressed = True
                        else:
                            ls.queue.append(node)
                            st.waiting_lock = step.lock_id
                            st.spins_emitted = 1
                            yield MemoryAccess(
                                node, step.spin_pc, step.address, False
                            )
                            progressed = True
                            break
                    elif isinstance(step, LockRelease):
                        ls = lock_state(step.lock_id)
                        if ls.holder != node:
                            raise SchedulingError(
                                f"node {node} releasing lock {step.lock_id} "
                                f"held by {ls.holder}"
                            )
                        yield MemoryAccess(
                            node, step.pc, step.address, True
                        )
                        ls.holder = None
                        yield SyncBoundary(
                            node, SyncKind.LOCK_RELEASE, step.lock_id
                        )
                        st.index += 1
                        executed += 1
                        progressed = True
                    else:  # pragma: no cover - step types are closed
                        raise SchedulingError(f"unknown step {step!r}")
                    # A node finishing its last step above:
                    if st.index >= len(steps) and not st.finished and \
                            st.waiting_lock is None and not st.at_barrier:
                        st.finished = True
                        pending -= 1

            # Barrier release: every unfinished node is at the barrier.
            # Finished nodes have already passed all barriers (the
            # ProgramSet validated equal barrier counts per node).
            if barrier_waiters and len(barrier_waiters) == pending:
                for w in barrier_waiters:
                    nodes[w].at_barrier = False
                barrier_waiters.clear()
                progressed = True

            if not progressed and pending > 0:
                stuck = {
                    i: ("barrier" if s.at_barrier else f"lock {s.waiting_lock}")
                    for i, s in nodes.items()
                    if not s.finished
                }
                raise SchedulingError(
                    f"scheduler deadlock in {self._programs.name!r}: {stuck}"
                )

    def _emit_acquire(
        self, node: int, step: LockAcquire, st: _NodeState
    ) -> Iterator[StreamEvent]:
        """Emit the access sequence completing a successful acquisition.

        Tops up fixed spin reads so the per-acquire access count is
        constant, then emits the test&set store and the ACQUIRE boundary.
        """
        if step.fixed_spins is not None:
            while st.spins_emitted < step.fixed_spins:
                st.spins_emitted += 1
                yield MemoryAccess(node, step.spin_pc, step.address, False)
        elif st.spins_emitted == 0:
            # Uncontended variable-spin acquire still observes the flag.
            st.spins_emitted += 1
            yield MemoryAccess(node, step.spin_pc, step.address, False)
        yield MemoryAccess(node, step.pc, step.address, True)
        yield SyncBoundary(node, SyncKind.LOCK_ACQUIRE, step.lock_id)
        st.spins_emitted = 0


def interleave(
    programs: ProgramSet, quantum: int = 1
) -> Iterator[StreamEvent]:
    """Convenience wrapper: iterate the global stream of ``programs``."""
    return InterleavingScheduler(programs, quantum=quantum).run()
