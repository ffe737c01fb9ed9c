"""Deterministic interleaving of per-node programs into one global stream.

The functional coherence simulator needs one global order of memory
accesses. :func:`schedule` executes the per-node programs round-robin
(``quantum`` steps per node per rotation), honouring barriers (all nodes
must arrive before any proceeds) and FIFO locks, and writes the
resulting stream of accesses and sync boundaries straight into a
:class:`CompiledStream`, the form every accuracy run replays.

The interleaving is a pure function of the programs and the quantum, so
every predictor configuration in an experiment observes the identical
stream — accuracy differences are attributable to the predictors alone.

Lock traffic is made visible to predictors as real accesses to the lock's
block, test&test&set style:

* while queued with ``fixed_spins=None``, a node emits one spin read per
  rotation (count varies with contention — raytrace's unpredictable
  workpool lock); an uncontended acquire still reads the flag once;
* with ``fixed_spins=k`` (``k >= 1``) the node emits exactly ``k`` spin
  reads per acquisition no matter the contention (repeatable traces —
  appbt's regular pipelined spin-locks);
* acquisition itself is a store to the lock block, as is the release.

This module owns the stream format. A :class:`CompiledStream` is two
flat arrays with one entry per event: the index of the event's
``(op, node, pc)`` in a small per-stream table, and the event's dense
block id (or, for a sync boundary, the index of its ``(kind, sync_id)``).
Table entries, block ids and sync indexes are numbered in order of
first appearance, and each array takes the narrowest typecode its
largest value fits: the programs repeat, so a small-size stream has a
few hundred distinct table entries and blocks and takes two or three
bytes per event. :func:`compile_stream` writes the same format from an event
stream (a replayed trace), and :func:`decode_stream` turns a stream
back into :class:`~repro.trace.events.MemoryAccess` and
:class:`~repro.trace.events.SyncBoundary` events; :func:`interleave`
decodes a schedule written with ``block_shift`` 0, so its addresses are
exact. :func:`fold` writes a stream's folded form: one representative
block per class of blocks whose access histories are equal up to a
renaming of nodes, weighted by the class's size, which the accuracy
simulator replays for block-local policies.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, SchedulingError
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    ProgramSet,
    validate_once,
)

StreamEvent = Union[MemoryAccess, SyncBoundary]

#: event opcodes, the first field of every ``CompiledStream.table`` entry
READ, WRITE, SYNC = 0, 1, 2

#: the next wider typecode of an array whose new index no longer fits
_WIDER = {"B": "H", "H": "I", "I": "Q"}

#: scheduler states of a node
_RUNNING, _AT_BARRIER, _WAITING, _FINISHED = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class CompiledStream:
    """An interleaved event stream laid out for replay.

    Event ``i`` is ``table[events[i]]``, an ``(op, node, pc)`` triple
    (``pc`` is 0 for a sync boundary), together with ``ids[i]``: the
    dense block id of an access (its block number is ``blocks[id]``) or
    the index of a sync boundary's ``(kind, sync_id)`` in ``syncs``.
    """

    name: str
    num_nodes: int
    #: log2 block size the addresses were mapped with
    block_shift: int
    #: per event: index into ``table``
    events: array
    #: per event: dense block id, or index into ``syncs`` (a folded
    #: stream's are :class:`BlockRuns`)
    ids: Union[array, "BlockRuns"]
    #: distinct ``(op, node, pc)`` triples
    table: List[Tuple[int, int, int]]
    #: dense block id -> block number
    blocks: List[int]
    #: interned sync boundaries
    syncs: List[Tuple[SyncKind, int]]
    #: memory accesses in the stream (in a folded stream: in the
    #: stream it folds)
    accesses: int
    #: dense block id -> the number of blocks it stands for (its
    #: class's size) in a folded stream (:func:`fold`); None when each
    #: id stands for itself
    weights: Optional[List[int]] = None


class BlockRuns:
    """The block ids of a folded stream, whose blocks' events are
    consecutive: ``0`` repeated ``lengths[0]`` times, then ``1``, and
    so on. It iterates like the ids array of a full stream and holds
    one length per block instead of one id per event."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: List[int]) -> None:
        self.lengths = lengths

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(
            map(repeat, range(len(self.lengths)), self.lengths)
        )


def _fit(values: array, value: int) -> array:
    """``values``, or a copy in the next wider typecode when ``value``
    does not fit its own."""
    if value >> (8 * values.itemsize):
        return array(_WIDER[values.typecode], values)
    return values


class _Writer:
    """Appends events to a stream's two arrays, numbering table
    entries, blocks and sync boundaries as they first appear and
    widening an array when a new index outgrows its typecode (so a
    caller holding an array's bound ``append`` re-reads it after every
    call here)."""

    __slots__ = (
        "block_shift", "events", "ids", "table", "blocks", "syncs",
        "_entries", "_block_ids", "_sync_ids", "_sync_events",
    )

    def __init__(self, block_shift: int) -> None:
        self.block_shift = block_shift
        self.events = array("B")
        self.ids = array("B")
        self.table: List[Tuple[int, int, int]] = []
        self.blocks: List[int] = []
        self.syncs: List[Tuple[SyncKind, int]] = []
        self._entries: Dict[Tuple[int, int, int], int] = {}
        self._block_ids: Dict[int, int] = {}
        self._sync_ids: Dict[Tuple[SyncKind, int], int] = {}
        self._sync_events = 0

    def access(
        self, op: int, node: int, pc: int, address: int
    ) -> Tuple[int, int]:
        """Append one access; return its table index and block id."""
        entry = self._entry((op, node, pc))
        block = address >> self.block_shift
        bid = self._block_ids.get(block)
        if bid is None:
            bid = self._block_ids[block] = len(self.blocks)
            self.blocks.append(block)
            self.ids = _fit(self.ids, bid)
        self.events.append(entry)
        self.ids.append(bid)
        return entry, bid

    def sync(self, node: int, kind: SyncKind, sync_id: int) -> None:
        """Append one sync boundary."""
        entry = self._entry((SYNC, node, 0))
        key = (kind, sync_id)
        index = self._sync_ids.get(key)
        if index is None:
            index = self._sync_ids[key] = len(self.syncs)
            self.syncs.append(key)
            self.ids = _fit(self.ids, index)
        self.events.append(entry)
        self.ids.append(index)
        self._sync_events += 1

    def _entry(self, key: Tuple[int, int, int]) -> int:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = len(self.table)
            self.table.append(key)
            self.events = _fit(self.events, entry)
        return entry

    def finish(self, name: str, num_nodes: int) -> CompiledStream:
        return CompiledStream(
            name, num_nodes, self.block_shift, self.events, self.ids,
            self.table, self.blocks, self.syncs,
            len(self.events) - self._sync_events,
        )


def schedule(
    programs: ProgramSet, quantum: int, block_shift: int
) -> CompiledStream:
    """Validate ``programs`` (once per object, :func:`validate_once`),
    interleave them and write the stream.

    Raises SchedulingError for a quantum below 1, a deadlock or a
    release of a lock the node does not hold, and WorkloadError (from
    :meth:`ProgramSet.validate`) for malformed programs.
    """
    if quantum < 1:
        raise SchedulingError(f"quantum must be >= 1, got {quantum}")
    validate_once(programs)
    n = programs.num_nodes
    writer = _Writer(block_shift)
    access, sync = writer.access, writer.sync
    append_entry, append_id = writer.events.append, writer.ids.append
    steps_of = [programs.programs[node].steps for node in range(n)]
    # the next step of each node
    index = [0] * n
    state = [_RUNNING] * n
    # the lock a waiting node is queued on
    waiting: List[Optional[int]] = [None] * n
    # spin reads a waiting node has emitted for its pending acquire
    spins = [0] * n
    # per node: id(step) -> (table index, block id) of an Access step;
    # a build shares one object between equal steps, and the steps
    # live as long as ``programs``, so their ids are stable here
    memos: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(n)]
    holder: Dict[int, int] = {}
    queues: Dict[int, Deque[int]] = {}
    at_barrier: List[int] = []

    def acquire(node: int, step: LockAcquire, emitted: int) -> None:
        # top the spin reads up to the fixed count (one read when the
        # count varies), then the test&set store and the boundary
        fixed = step.fixed_spins
        for _ in range((1 if fixed is None else fixed) - emitted):
            access(READ, node, step.spin_pc, step.address)
        access(WRITE, node, step.pc, step.address)
        sync(node, SyncKind.LOCK_ACQUIRE, step.lock_id)

    def sync_step(node: int, step) -> int:
        """Execute a barrier or lock step; return the node's state."""
        cls = step.__class__
        if cls is Barrier:
            sync(node, SyncKind.BARRIER, step.barrier_id)
            at_barrier.append(node)
            state[node] = _AT_BARRIER
        elif cls is LockAcquire:
            lock = step.lock_id
            if holder.get(lock) is None and not queues.get(lock):
                holder[lock] = node
                acquire(node, step, 0)
            else:
                queues.setdefault(lock, deque()).append(node)
                waiting[node] = lock
                spins[node] = 1
                access(READ, node, step.spin_pc, step.address)
                state[node] = _WAITING
        elif cls is LockRelease:
            lock = step.lock_id
            if holder.get(lock) != node:
                raise SchedulingError(
                    f"node {node} releasing lock {lock} "
                    f"held by {holder.get(lock)}"
                )
            access(WRITE, node, step.pc, step.address)
            holder[lock] = None
            sync(node, SyncKind.LOCK_RELEASE, lock)
        else:  # pragma: no cover - step types are closed
            raise SchedulingError(f"unknown step {step!r}")
        return state[node]

    rows = list(zip(range(n), steps_of, map(len, steps_of), memos))
    pending = n
    while pending:
        progressed = False
        for node, steps, count, memo in rows:
            status = state[node]
            if status == _WAITING:
                step = steps[index[node]]
                lock = waiting[node]
                queue = queues[lock]
                if holder.get(lock) is None and queue[0] == node:
                    queue.popleft()
                    holder[lock] = node
                    acquire(node, step, spins[node])
                    state[node] = _RUNNING
                    waiting[node] = None
                    index[node] += 1
                    progressed = True
                elif step.fixed_spins is None or spins[node] < step.fixed_spins:
                    # still queued: one test&test&set re-read per rotation
                    spins[node] += 1
                    access(READ, node, step.spin_pc, step.address)
                    progressed = True
                append_entry = writer.events.append
                append_id = writer.ids.append
                continue
            if status:
                continue
            i = index[node]
            progressed = True
            if i == count:
                state[node] = _FINISHED
                pending -= 1
                continue
            executed = 0
            while True:
                step = steps[i]
                i += 1
                if step.__class__ is Access:
                    pair = memo.get(id(step))
                    if pair is None:
                        memo[id(step)] = access(
                            WRITE if step.is_write else READ,
                            node, step.pc, step.address,
                        )
                        append_entry = writer.events.append
                        append_id = writer.ids.append
                    else:
                        entry, bid = pair
                        append_entry(entry)
                        append_id(bid)
                else:
                    status = sync_step(node, step)
                    append_entry = writer.events.append
                    append_id = writer.ids.append
                    if status == _WAITING:
                        i -= 1  # the acquire completes when granted
                        break
                    if status == _AT_BARRIER:
                        break
                executed += 1
                if i == count:
                    state[node] = _FINISHED
                    pending -= 1
                    break
                if executed == quantum:
                    break
            index[node] = i

        # Barrier release: every unfinished node is at the barrier.
        # Finished nodes have already passed all barriers (the
        # ProgramSet validated equal barrier counts per node).
        if at_barrier and len(at_barrier) == pending:
            for waiter in at_barrier:
                state[waiter] = _RUNNING
            at_barrier.clear()
            progressed = True

        if not progressed and pending:
            stuck = {
                i: (
                    "barrier" if state[i] == _AT_BARRIER
                    else f"lock {waiting[i]}"
                )
                for i in range(n)
                if state[i] != _FINISHED
            }
            raise SchedulingError(
                f"scheduler deadlock in {programs.name!r}: {stuck}"
            )
    return writer.finish(programs.name, n)


def compile_stream(
    events: Iterable, num_nodes: int, block_shift: int, name: str = "trace"
) -> CompiledStream:
    """Write an event stream (a replayed trace) in the stream format.

    Raises ConfigurationError for an event whose node lies outside
    ``0..num_nodes-1``. Events that are neither accesses nor sync
    boundaries carry nothing to replay and are skipped.
    """
    writer = _Writer(block_shift)
    append_entry, append_id = writer.events.append, writer.ids.append
    # (node, pc, address, is_write) -> (table index, block id)
    seen: Dict[Tuple[int, int, int, bool], Tuple[int, int]] = {}
    for ev in events:
        if isinstance(ev, MemoryAccess):
            key = (ev.node, ev.pc, ev.address, ev.is_write)
            pair = seen.get(key)
            if pair is not None:
                entry, bid = pair
                append_entry(entry)
                append_id(bid)
                continue
            _check_node(ev, num_nodes)
            seen[key] = writer.access(
                WRITE if ev.is_write else READ, ev.node, ev.pc, ev.address
            )
        elif isinstance(ev, SyncBoundary):
            _check_node(ev, num_nodes)
            writer.sync(ev.node, ev.kind, ev.sync_id)
        else:
            continue
        append_entry, append_id = writer.events.append, writer.ids.append
    return writer.finish(name, num_nodes)


def fold(stream: CompiledStream) -> CompiledStream:
    """One representative block per class of equal block histories.

    A block's history is its accesses in stream order, each written as
    ``(op, pc, node)`` with the nodes renamed in order of first
    appearance within the block; blocks with equal histories form a
    class, compared by their exact bytes. The folded stream holds each
    class's first block, numbered in order of first appearance, with
    its accesses in stream order, one representative after another; it
    drops every sync boundary, shares ``stream``'s table, keeps its
    ``accesses`` count and weighs each representative by its class's
    size. Replaying it stands for replaying ``stream`` only when every
    node runs the same block-local policy (see
    :meth:`repro.core.base.SelfInvalidationPolicy.block_local_config`).
    """
    table, typecode = stream.table, stream.events.typecode
    histories = _histories(stream)
    codes: Dict[Tuple[int, int], int] = {}
    code_of = [codes.setdefault((op, pc), len(codes)) for op, _, pc in table]
    node_of = [node for _, node, _ in table]
    num_nodes = stream.num_nodes
    narrow = typecode == "B" and max(len(codes), num_nodes) <= 256
    if narrow:
        # entries, codes and nodes all fit a byte: look them up with
        # bytes.translate, one C pass per block
        code_bytes = bytes(code_of).ljust(256, b"\0")
        node_bytes = bytes(node_of).ljust(256, b"\0")
    else:
        code_type = _typecode(len(codes))
        node_type = _typecode(num_nodes)
        rank = [0] * num_nodes
    classes: Dict[Tuple[bytes, bytes], int] = {}
    members: List[int] = []
    weights: List[int] = []
    lengths: List[int] = []
    events = array(typecode)
    for bid in range(len(histories)):
        # a history is dropped once filed, so the histories and the
        # folded events never both hold a block
        history, histories[bid] = histories[bid], None
        if narrow:
            raw = history.tobytes()
            nodes = raw.translate(node_bytes)
            rename = bytearray(256)
            for order, node in enumerate(dict.fromkeys(nodes)):
                rename[node] = order
            key = (raw.translate(code_bytes), nodes.translate(rename))
        else:
            nodes = array(node_type, map(node_of.__getitem__, history))
            for order, node in enumerate(dict.fromkeys(nodes)):
                rank[node] = order
            key = (
                array(code_type, map(code_of.__getitem__, history)).tobytes(),
                array(node_type, map(rank.__getitem__, nodes)).tobytes(),
            )
        index = classes.setdefault(key, len(members))
        if index < len(members):
            weights[index] += 1
            continue
        members.append(bid)
        weights.append(1)
        lengths.append(len(history))
        events.extend(history)
    return CompiledStream(
        stream.name, num_nodes, stream.block_shift, events,
        BlockRuns(lengths), table, [stream.blocks[bid] for bid in members],
        [], stream.accesses, weights,
    )


def _histories(stream: CompiledStream) -> List[Optional[array]]:
    """Each block's history: the table entries of its accesses, in
    stream order, filed in one pass over the events."""
    histories = [array(stream.events.typecode) for _ in stream.blocks]
    append = [history.append for history in histories]
    is_sync = bytes(op == SYNC for op, _, _ in stream.table)
    for entry, bid in zip(stream.events, stream.ids):
        if not is_sync[entry]:
            append[bid](entry)
    return histories


def _typecode(count: int) -> str:
    """The narrowest array typecode that holds ``0..count-1``."""
    typecode = "B"
    while count > 1 << (8 * array(typecode).itemsize):
        typecode = _WIDER[typecode]
    return typecode


def _check_node(ev: StreamEvent, num_nodes: int) -> None:
    if not 0 <= ev.node < num_nodes:
        raise ConfigurationError(
            f"stream event {ev!r} names node {ev.node}, outside "
            f"0..{num_nodes - 1}"
        )


def decode_stream(stream: CompiledStream) -> Iterator[StreamEvent]:
    """The events of ``stream``, in order; an access's address is its
    block number shifted back by ``block_shift``."""
    table, blocks, syncs = stream.table, stream.blocks, stream.syncs
    shift = stream.block_shift
    for entry, upper in zip(stream.events, stream.ids):
        op, node, pc = table[entry]
        if op == SYNC:
            kind, sync_id = syncs[upper]
            yield SyncBoundary(node, kind, sync_id)
        else:
            yield MemoryAccess(node, pc, blocks[upper] << shift, op == WRITE)


def interleave(
    programs: ProgramSet, quantum: int = 1
) -> Iterator[StreamEvent]:
    """The global event stream of ``programs``, with exact addresses.

    Scheduling, with its checks, happens in this call; the events are
    decoded as the caller iterates.
    """
    return decode_stream(schedule(programs, quantum, 0))
