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
an experiment sees the identical access sequence. So the scheduler
writes it once per ``(ProgramSet, quantum, block_shift)`` in a process,
straight into a :class:`~repro.trace.scheduler.CompiledStream` (two flat
arrays: an index into a small ``(op, node, pc)`` table and a dense block
id per event), which every run, and both passes of the oracle, replay
with one table lookup per event. The stream is memoized on the
ProgramSet object's identity and dropped when that object is
garbage-collected (:func:`repro.trace.program.compiled_once`, the memo
the timing engine compiles through too).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set

from repro.core.base import SelfInvalidationPolicy, StorageReport
from repro.core.oracle import OraclePolicy
from repro.core.storage import aggregate_reports
from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import MissKind, ProtocolVariant
from repro.sim.results import AccuracyReport
from repro.trace.program import ProgramSet, compiled_once
from repro.trace.scheduler import (
    SYNC,
    CompiledStream,
    compile_stream,
    schedule,
)

# Nothing here calls ``interleave``; the name stays bound because the
# benchmark's layer tracer (perfbench/layers.py) rebinds it in this
# module and in repro.runner.runner to time interleaving.
from repro.trace.scheduler import interleave  # noqa: F401

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

DEFAULT_BLOCK_SHIFT = 5


def compiled_stream(
    programs: ProgramSet, quantum: int, block_shift: int
) -> CompiledStream:
    """``programs`` scheduled (and validated) once per process per
    ``(quantum, block_shift)``; the entry lives as long as the
    ProgramSet object does (:func:`compiled_once`)."""
    return compiled_once(
        programs,
        ("accuracy", quantum, block_shift),
        lambda: schedule(programs, quantum, block_shift),
    )


class AccuracySimulator:
    """Runs (workload, policy) pairs and classifies every invalidation.

    Args:
        policy_factory: called once per node id to build that node's
            policy instance.
        quantum: scheduler quantum (see :func:`repro.trace.scheduler.schedule`).
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
        for policy in policies:
            policy.bind(stream.blocks)
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
        table, syncs = stream.table, stream.syncs
        upgrade = MissKind.UPGRADE
        misses = predicted = not_predicted = mispredicted = fired = 0

        for entry, bid in zip(stream.events, stream.ids):
            op, node, pc = table[entry]
            if op == SYNC:
                kind, sync_id = syncs[bid]
                for bid in on_sync[node](kind, sync_id):
                    if states[node][bid]:
                        drop(node, bid)
                        fired += 1
                continue
            if states[node][bid] > op:
                # plain hit: no directory action, nothing to verify
                if on_access[node](bid, pc, False, None, None):
                    drop(node, bid)
                    fired += 1
                continue
            misses += 1
            premature, verified, victims, kind, version = miss(node, bid, op)
            # Verification outcomes precede the requester's own
            # bookkeeping.
            if premature:
                mispredicted += 1
                on_premature[node](bid)
            if verified:
                predicted += len(verified)
                for other in verified:
                    on_verified[other](bid)
            if victims:
                not_predicted += len(victims)
                for victim in victims:
                    on_invalidation[victim](bid)
            if on_access[node](bid, pc, kind is not upgrade, kind, version):
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
    table = stream.table
    for entry, bid in zip(stream.events, stream.ids):
        op, node, _ = table[entry]
        if op == SYNC:
            continue
        if states[node][bid] <= op:
            for victim in engine.miss(node, bid, op)[2]:
                mark = last_access[victim].get(bid)
                if mark is not None:
                    result[victim].add(mark)
        last_access[node][bid] = ordinal[node]
        ordinal[node] += 1
    return result
