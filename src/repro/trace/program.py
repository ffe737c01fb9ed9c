"""Per-node programs: the step language workloads are written in.

A :class:`Program` is the ordered list of steps one node executes. The
step types are deliberately minimal — plain memory accesses plus the two
synchronization primitives the paper's benchmarks use (locks and
barriers). Workload generators build one program per node; the
functional scheduler (:mod:`repro.trace.scheduler`) and the timing
simulator (:mod:`repro.timing`) both execute the same programs, so
accuracy and timing experiments see identical instruction streams.

A built :class:`ProgramSet` and its steps are never mutated. Workload
generators write through one :class:`ProgramBuilder` per node, whose
constructors make each distinct step once per build and append that
one object wherever the step recurs, and both simulators compile a
ProgramSet once per process (:func:`compiled_once`) and reuse that
compile for as long as the object lives; neither would be sound if a
step or a program changed after its build. The step classes stay
mutable dataclasses only because constructing frozen ones is about
three times slower.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, TypeVar, Union

from repro.errors import WorkloadError

T = TypeVar("T")


def _reduce_to_fields(step):
    """Pickle a step as its class and its field tuple.

    The default reduction of a slotted object writes a slot-name dict
    per object; the constructor arguments alone make trace-cache entries
    smaller and faster to load. Entries written the default way still
    load: unpickling them sets the slots directly.
    """
    fields = tuple(getattr(step, name) for name in step.__slots__)
    return step.__class__, fields


@dataclass(slots=True)
class Access:
    """A load (``is_write=False``) or store to ``address`` at ``pc``.

    ``work`` models the compute cycles preceding the access and is only
    meaningful to the timing simulator.
    """

    pc: int
    address: int
    is_write: bool
    work: int = 0

    __reduce__ = _reduce_to_fields


@dataclass(slots=True)
class Barrier:
    """Global barrier; every node must reach it before any proceeds.

    Barriers are matched by arrival order per node: the k-th Barrier step
    a node executes synchronizes with the k-th of every other node.
    ``barrier_id`` labels the *static* barrier site for analysis/DSI.
    """

    barrier_id: int

    __reduce__ = _reduce_to_fields


@dataclass(slots=True)
class LockAcquire:
    """Acquire lock ``lock_id`` whose flag lives at ``address``.

    The executing engines emit real memory traffic for the lock:
    a test&test&set style read at ``spin_pc`` while waiting (either a
    fixed, repeatable count via ``fixed_spins`` — predictable, like
    appbt's pipelined spin-locks — or one re-read per ownership hand-off
    while queued, which varies with contention like raytrace's workpool
    lock), followed by the acquiring store at ``pc``. A fixed count is
    at least 1 (:meth:`ProgramSet.validate`).
    """

    lock_id: int
    address: int
    pc: int
    spin_pc: int
    fixed_spins: Optional[int] = None

    __reduce__ = _reduce_to_fields


@dataclass(slots=True)
class LockRelease:
    """Release lock ``lock_id`` with a store to ``address`` at ``pc``."""

    lock_id: int
    address: int
    pc: int

    __reduce__ = _reduce_to_fields


Step = Union[Access, Barrier, LockAcquire, LockRelease]


@dataclass(slots=True)
class Program:
    """The ordered steps executed by one node."""

    node: int
    steps: List[Step] = field(default_factory=list)

    def append(self, step: Step) -> None:
        self.steps.append(step)

    def extend(self, steps: List[Step]) -> None:
        self.steps.extend(steps)

    def __len__(self) -> int:
        return len(self.steps)


class ProgramBuilder:
    """The steps one node executes, written during a workload build.

    All builders of one build share ``table``, keyed by step class and
    field values, so each distinct step is constructed once and every
    equal step of the build is that one object: a workload's steps
    repeat from one iteration to the next, and pickle's memo keeps the
    sharing in a trace-cache entry. The typed constructors look a step
    up before making it, each inline so that a step costs one call;
    :meth:`append` interns a step made elsewhere.
    """

    __slots__ = ("steps", "_table")

    def __init__(self, table: Dict[tuple, Step]) -> None:
        self.steps: List[Step] = []
        self._table = table

    def access(
        self, pc: int, address: int, is_write: bool, work: int = 0
    ) -> None:
        key = (Access, pc, address, is_write, work)
        try:
            step = self._table[key]
        except KeyError:
            step = self._table[key] = Access(pc, address, is_write, work)
        self.steps.append(step)

    def barrier(self, barrier_id: int) -> None:
        key = (Barrier, barrier_id)
        try:
            step = self._table[key]
        except KeyError:
            step = self._table[key] = Barrier(barrier_id)
        self.steps.append(step)

    def acquire(
        self,
        lock_id: int,
        address: int,
        pc: int,
        spin_pc: int,
        fixed_spins: Optional[int] = None,
    ) -> None:
        key = (LockAcquire, lock_id, address, pc, spin_pc, fixed_spins)
        try:
            step = self._table[key]
        except KeyError:
            step = self._table[key] = LockAcquire(
                lock_id, address, pc, spin_pc, fixed_spins
            )
        self.steps.append(step)

    def release(self, lock_id: int, address: int, pc: int) -> None:
        key = (LockRelease, lock_id, address, pc)
        try:
            step = self._table[key]
        except KeyError:
            step = self._table[key] = LockRelease(lock_id, address, pc)
        self.steps.append(step)

    def append(self, step: Step) -> None:
        cls = step.__class__
        key = (cls, *[getattr(step, name) for name in cls.__slots__])
        self.steps.append(self._table.setdefault(key, step))


@dataclass
class ProgramSet:
    """A complete workload build: one program per node plus metadata.

    Attributes:
        name: workload name (e.g. ``"tomcatv"``).
        num_nodes: number of processors; programs must cover exactly the
            node ids ``0..num_nodes-1``.
        programs: node id -> Program.
        shared_blocks: optional hint listing the shared block numbers the
            workload touches (used by reports; engines do not need it).
    """

    name: str
    num_nodes: int
    programs: Dict[int, Program]
    shared_blocks: Optional[List[int]] = None

    def __post_init__(self) -> None:
        expected = set(range(self.num_nodes))
        got = set(self.programs)
        if got != expected:
            raise WorkloadError(
                f"ProgramSet {self.name!r} must define programs for nodes "
                f"{sorted(expected)}, got {sorted(got)}"
            )

    def validate(self) -> None:
        """Check structural sanity: barrier counts match across nodes,
        every acquired lock is released by the same node, and a fixed
        spin count is at least 1 (a test&test&set acquire reads the flag
        at least once, in both engines).

        Raises WorkloadError on the first violation found.
        """
        barrier_counts = {
            node: sum(1 for s in prog.steps if isinstance(s, Barrier))
            for node, prog in self.programs.items()
        }
        counts = set(barrier_counts.values())
        if len(counts) > 1:
            raise WorkloadError(
                f"ProgramSet {self.name!r}: barrier counts differ across "
                f"nodes: {barrier_counts}"
            )
        for node, prog in self.programs.items():
            held: List[int] = []
            for step in prog.steps:
                if isinstance(step, LockAcquire):
                    if step.fixed_spins is not None and step.fixed_spins < 1:
                        raise WorkloadError(
                            f"node {node} acquires lock {step.lock_id} with "
                            f"fixed_spins={step.fixed_spins}; need >= 1"
                        )
                    if step.lock_id in held:
                        raise WorkloadError(
                            f"node {node} re-acquires held lock {step.lock_id}"
                        )
                    held.append(step.lock_id)
                elif isinstance(step, LockRelease):
                    if step.lock_id not in held:
                        raise WorkloadError(
                            f"node {node} releases un-held lock {step.lock_id}"
                        )
                    held.remove(step.lock_id)
            if held:
                raise WorkloadError(
                    f"node {node} ends holding locks {held} in {self.name!r}"
                )

    def total_steps(self) -> int:
        return sum(len(p) for p in self.programs.values())


#: id(ProgramSet) -> {key: compiled form}; see :func:`compiled_once`
_COMPILED: Dict[int, Dict[Hashable, object]] = {}


def compiled_once(
    programs: ProgramSet, key: Hashable, build: Callable[[], T]
) -> T:
    """``build()``, run once per process per ``programs`` object and
    ``key`` and kept as long as that object lives.

    The memo both simulators compile through: the entry is keyed on the
    ProgramSet's identity and dropped when the object is
    garbage-collected. Callers fold into ``key`` every parameter their
    compile depends on, and treat the value as read-only.
    """
    per_set = _COMPILED.get(id(programs))
    if per_set is None:
        per_set = _COMPILED[id(programs)] = {}
        weakref.finalize(programs, _COMPILED.pop, id(programs), None)
    value = per_set.get(key)
    if value is None:
        value = per_set[key] = build()
    return value


def validate_once(programs: ProgramSet) -> None:
    """:meth:`ProgramSet.validate`, run once per process per
    ``programs`` object through :func:`compiled_once`. Only a pass is
    memoized, so a malformed set raises on every call."""

    def check() -> bool:
        programs.validate()
        return True  # compiled_once treats None as absent

    compiled_once(programs, validate_once, check)
