"""The accuracy simulator: stream -> coherence -> policies -> report.

Drives the deterministic interleaved stream of a workload through the
functional coherence engine with one self-invalidation policy per node,
performing the paper's Section-4 machinery:

* every external invalidation is delivered to the victim's policy (the
  learning event) and counted *not predicted*;
* a policy firing on an access (LTP family) or at a sync boundary (DSI)
  makes the engine self-invalidate the block, entering it into the
  directory's verification mask;
* mask resolutions surface as *predicted* (verified correct, with
  positive feedback to the policy) or *mispredicted* (premature, with
  negative feedback).

Because the stream is a pure function of the workload, every policy in
an experiment sees the identical access sequence. So the stream is
interleaved once per ``(ProgramSet, quantum, block_shift)`` in a
process and compiled into a :class:`CompiledStream` — one packed
integer per event over dense block ids — which every run, and both
passes of the oracle, replay. The compiled stream is memoized on the
ProgramSet object's identity and dropped when that object is
garbage-collected.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.core.base import SelfInvalidationPolicy, StorageReport
from repro.core.oracle import OraclePolicy
from repro.core.storage import aggregate_reports
from repro.errors import ConfigurationError
from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import MissKind, ProtocolVariant
from repro.sim.results import AccuracyReport
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace.program import ProgramSet
from repro.trace.scheduler import interleave

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

DEFAULT_BLOCK_SHIFT = 5

#: event-code opcodes (the low two bits of every code)
_READ, _WRITE, _SYNC = 0, 1, 2

#: initial width of the pc-index field; widened when a stream has more
#: distinct PCs
_PC_BITS = 4


@dataclass(frozen=True, eq=False)
class CompiledStream:
    """An interleaved event stream packed for replay.

    Each entry of ``codes`` is one event, laid out from the low bits up
    as: a 2-bit opcode (read, write, sync boundary), the node
    (``node_bits`` wide), the pc index (``pc_bits`` wide, 0 for sync
    boundaries), and — from bit ``top_shift`` — the dense block id, or
    for a sync boundary the index of its ``(kind, sync_id)`` in
    ``syncs``. A small stream fits 32 bits per event.
    """

    name: str
    num_nodes: int
    #: log2 block size the addresses were mapped with
    block_shift: int
    codes: array
    #: dense block id -> block number
    blocks: List[int]
    #: pc index -> pc
    pcs: List[int]
    #: interned sync boundaries
    syncs: List[Tuple[SyncKind, int]]
    node_bits: int
    pc_bits: int
    #: memory accesses in the stream
    accesses: int

    @property
    def pc_shift(self) -> int:
        return 2 + self.node_bits

    @property
    def top_shift(self) -> int:
        return 2 + self.node_bits + self.pc_bits


def compile_stream(
    events: Iterable,
    num_nodes: int,
    block_shift: int = DEFAULT_BLOCK_SHIFT,
    name: str = "trace",
) -> CompiledStream:
    """Pack an event stream (a scheduler's output or a replayed trace).

    Raises ConfigurationError for an event whose node lies outside
    ``0..num_nodes-1``. Events that are neither accesses nor sync
    boundaries carry nothing to replay and are skipped.
    """
    node_bits = max(1, (num_nodes - 1).bit_length())
    pc_shift = 2 + node_bits
    pc_bits = _PC_BITS
    top = pc_shift + pc_bits
    codes = array("I")
    limit = (1 << (8 * codes.itemsize)) - 1
    block_ids: Dict[int, int] = {}
    blocks: List[int] = []
    pc_ids: Dict[int, int] = {}
    pcs: List[int] = []
    sync_ids: Dict[Tuple[SyncKind, int], int] = {}
    syncs: List[Tuple[SyncKind, int]] = []
    accesses = 0
    for ev in events:
        if isinstance(ev, MemoryAccess):
            op = _WRITE if ev.is_write else _READ
            block = ev.address >> block_shift
            upper = block_ids.get(block)
            if upper is None:
                upper = block_ids[block] = len(blocks)
                blocks.append(block)
            pc_index = pc_ids.get(ev.pc)
            if pc_index is None:
                pc_index = pc_ids[ev.pc] = len(pcs)
                pcs.append(ev.pc)
                if pc_index >> pc_bits:
                    codes = _widen(codes, top, top + pc_bits)
                    limit = (1 << (8 * codes.itemsize)) - 1
                    pc_bits *= 2
                    top = pc_shift + pc_bits
            accesses += 1
        elif isinstance(ev, SyncBoundary):
            op = _SYNC
            key = (ev.kind, ev.sync_id)
            upper = sync_ids.get(key)
            if upper is None:
                upper = sync_ids[key] = len(syncs)
                syncs.append(key)
            pc_index = 0
        else:
            continue
        node = ev.node
        if not 0 <= node < num_nodes:
            raise ConfigurationError(
                f"stream event {ev!r} names node {node}, outside "
                f"0..{num_nodes - 1}"
            )
        code = (upper << top) | (pc_index << pc_shift) | (node << 2) | op
        if code > limit:
            codes = array("Q", codes)
            limit = (1 << (8 * codes.itemsize)) - 1
        codes.append(code)
    return CompiledStream(
        name, num_nodes, block_shift, codes, blocks, pcs, syncs,
        node_bits, pc_bits, accesses,
    )


def _widen(codes: array, top: int, new_top: int) -> array:
    """Move every code's upper field from bit ``top`` to ``new_top``."""
    low = (1 << top) - 1
    wide = array("Q", ((c >> top) << new_top | (c & low) for c in codes))
    if max(wide, default=0) >> (8 * array("I").itemsize):
        return wide
    return array("I", wide)


#: id(ProgramSet) -> {(quantum, block_shift): CompiledStream}
_COMPILED: Dict[int, Dict[Tuple[int, int], CompiledStream]] = {}


def compiled_stream(
    programs: ProgramSet, quantum: int, block_shift: int
) -> CompiledStream:
    """``programs`` interleaved (and validated) once per process per
    ``(quantum, block_shift)``, and compiled; the entry lives as long
    as the ProgramSet object does. A ProgramSet is not to be mutated
    after its first run — the runner's build memo assumes the same."""
    per_set = _COMPILED.get(id(programs))
    if per_set is None:
        per_set = _COMPILED[id(programs)] = {}
        weakref.finalize(programs, _COMPILED.pop, id(programs), None)
    key = (quantum, block_shift)
    stream = per_set.get(key)
    if stream is None:
        stream = per_set[key] = compile_stream(
            interleave(programs, quantum=quantum),
            programs.num_nodes,
            block_shift,
            name=programs.name,
        )
    return stream


class AccuracySimulator:
    """Runs (workload, policy) pairs and classifies every invalidation.

    Args:
        policy_factory: called once per node id to build that node's
            policy instance.
        quantum: scheduler quantum (see InterleavingScheduler).
        block_shift: log2 block size in bytes.
    """

    def __init__(
        self,
        policy_factory: PolicyFactory,
        quantum: int = 1,
        block_shift: int = DEFAULT_BLOCK_SHIFT,
        variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
    ) -> None:
        self._factory = policy_factory
        self._quantum = quantum
        self._block_shift = block_shift
        self._variant = variant

    @classmethod
    def for_predictor(
        cls, policy_factory: PolicyFactory, **kwargs
    ) -> "AccuracySimulator":
        """Alias constructor; reads naturally at call sites."""
        return cls(policy_factory, **kwargs)

    def run(self, programs: ProgramSet) -> AccuracyReport:
        """Execute the workload and return the accuracy report."""
        return self._replay(
            compiled_stream(programs, self._quantum, self._block_shift)
        )

    def run_stream(
        self, events, num_nodes: int, name: str = "trace"
    ) -> AccuracyReport:
        """Run a pre-interleaved event stream (e.g. a replayed trace
        from :mod:`repro.trace.io`) through the coherence engine."""
        return self._replay(
            compile_stream(events, num_nodes, self._block_shift, name=name)
        )

    def _replay(self, stream: CompiledStream) -> AccuracyReport:
        policies = [self._factory(node) for node in range(stream.num_nodes)]
        engine = CoherenceEngine(
            stream.num_nodes, block_shift=stream.block_shift,
            variant=self._variant, blocks=stream.blocks,
        )
        on_access = [p.on_access for p in policies]
        on_invalidation = [p.on_invalidation for p in policies]
        on_verified = [p.on_verified_correct for p in policies]
        on_premature = [p.on_premature for p in policies]
        on_sync = [p.on_sync for p in policies]
        states = engine.states
        miss = engine.miss
        drop = engine.self_invalidate_id
        block_ids = engine.ids
        blocks, pcs, syncs = stream.blocks, stream.pcs, stream.syncs
        node_mask = (1 << stream.node_bits) - 1
        pc_shift, pc_mask = stream.pc_shift, (1 << stream.pc_bits) - 1
        top = stream.top_shift
        upgrade = MissKind.UPGRADE
        misses = predicted = not_predicted = mispredicted = fired = 0

        for code in stream.codes:
            op = code & 3
            node = (code >> 2) & node_mask
            if op == _SYNC:
                kind, sync_id = syncs[code >> top]
                for block in on_sync[node](kind, sync_id):
                    bid = block_ids.get(block)
                    if bid is not None and states[node][bid]:
                        drop(node, bid)
                        fired += 1
                continue
            bid = code >> top
            pc = pcs[(code >> pc_shift) & pc_mask]
            if states[node][bid] > op:
                # plain hit: no directory action, nothing to verify
                if on_access[node](
                    blocks[bid], pc, False, None, None
                ).self_invalidate:
                    drop(node, bid)
                    fired += 1
                continue
            misses += 1
            premature, verified, victims, kind, version = miss(node, bid, op)
            block = blocks[bid]
            # Verification outcomes precede the requester's own
            # bookkeeping.
            if premature:
                mispredicted += 1
                on_premature[node](block)
            if verified:
                predicted += len(verified)
                for other in verified:
                    on_verified[other](block)
            if victims:
                not_predicted += len(victims)
                for victim in victims:
                    on_invalidation[victim](block)
            if on_access[node](
                block, pc, kind is not upgrade, kind, version
            ).self_invalidate:
                drop(node, bid)
                fired += 1

        return AccuracyReport(
            workload=stream.name,
            policy=policies[0].name,
            predicted=predicted,
            not_predicted=not_predicted,
            mispredicted=mispredicted,
            unresolved=engine.unresolved_self_invalidations(),
            accesses=stream.accesses,
            coherence_misses=misses,
            self_invalidations=fired,
            storage=self._collect_storage(policies),
        )

    @staticmethod
    def _collect_storage(policies: List[SelfInvalidationPolicy]):
        reports: List[StorageReport] = [p.storage_report() for p in policies]
        if all(r.tracked_blocks == 0 for r in reports):
            return None
        return aggregate_reports(reports)

    # ------------------------------------------------------------------

    def run_oracle(self, programs: ProgramSet) -> AccuracyReport:
        """Two-pass oracle run: profile last touches, then fire exactly
        at them (the upper-bound ablation; see repro.core.oracle). Both
        passes replay the same compiled stream."""
        ordinals = _last_touch_ordinals(
            compiled_stream(programs, self._quantum, self._block_shift)
        )
        oracle_sim = AccuracySimulator(
            lambda node: OraclePolicy(ordinals[node]),
            quantum=self._quantum,
            block_shift=self._block_shift,
            variant=self._variant,
        )
        return oracle_sim.run(programs)


def compute_last_touch_ordinals(
    stream: Iterable, num_nodes: int, block_shift: int = DEFAULT_BLOCK_SHIFT
) -> Dict[int, Set[int]]:
    """Profile ``stream`` and return node -> set of last-touch ordinals.

    An access's *ordinal* is its index in that node's own access stream
    (0-based). An access is a last touch when the node's copy of the
    block is externally invalidated before the node touches it again.
    """
    return _last_touch_ordinals(compile_stream(stream, num_nodes, block_shift))


def _last_touch_ordinals(stream: CompiledStream) -> Dict[int, Set[int]]:
    num_nodes = stream.num_nodes
    engine = CoherenceEngine(
        num_nodes, block_shift=stream.block_shift, blocks=stream.blocks
    )
    states = engine.states
    ordinal = [0] * num_nodes
    #: node -> dense block id -> ordinal of the node's latest access
    last_access: List[Dict[int, int]] = [{} for _ in range(num_nodes)]
    result: Dict[int, Set[int]] = {n: set() for n in range(num_nodes)}
    node_mask = (1 << stream.node_bits) - 1
    top = stream.top_shift
    for code in stream.codes:
        op = code & 3
        if op == _SYNC:
            continue
        node = (code >> 2) & node_mask
        bid = code >> top
        if states[node][bid] <= op:
            for victim in engine.miss(node, bid, op)[2]:
                mark = last_access[victim].get(bid)
                if mark is not None:
                    result[victim].add(mark)
        last_access[node][bid] = ordinal[node]
        ordinal[node] += 1
    return result
