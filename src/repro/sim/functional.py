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

A run whose nodes all run the same block-local policy
(:meth:`~repro.core.base.SelfInvalidationPolicy.block_local_config`:
the per-block LTP, Last-PC and the base policy) replays the folded
stream instead (:func:`repro.trace.scheduler.fold`): one block per
class of blocks whose histories are equal up to a renaming of nodes,
each weighted by its class's size. A block's coherence outcomes depend
only on its own history, and such a policy's decisions only on its
node's view of that block, so the class's outcomes are the
representative's times the class's size. ``run`` and ``run_stream``
build the policies once, ask them, and pick the stream; the folded
stream is memoized beside the stream it folds, built by the first run
that needs it. The replay loop is the same for both streams: it
multiplies every outcome by the block's weight, which is 1 in a full
stream.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set

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
    fold,
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


def folded_stream(
    programs: ProgramSet, quantum: int, block_shift: int
) -> CompiledStream:
    """:func:`compiled_stream` folded (:func:`repro.trace.scheduler.fold`)
    once per process per ``(quantum, block_shift)``, memoized beside
    the stream it folds."""
    return compiled_once(
        programs,
        ("accuracy-folded", quantum, block_shift),
        lambda: fold(compiled_stream(programs, quantum, block_shift)),
    )


def _folds(policies: List[SelfInvalidationPolicy]) -> bool:
    """True when a folded stream stands for the full one: every node
    runs the same block-local configuration, so renaming the nodes of
    a block's history renames only which node's policy learns what."""
    configs = {policy.block_local_config() for policy in policies}
    return len(configs) == 1 and None not in configs


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
        policies = self._policies(programs.num_nodes)
        stream = (folded_stream if _folds(policies) else compiled_stream)(
            programs, self._quantum, self._block_shift
        )
        return self._replay(stream, policies)

    def run_stream(
        self, events, num_nodes: int, name: str = "trace"
    ) -> AccuracyReport:
        """Run a pre-interleaved event stream (e.g. a replayed trace
        from :mod:`repro.trace.io`) through the coherence engine."""
        policies = self._policies(num_nodes)
        stream = compile_stream(
            events, num_nodes, self._block_shift, name=name
        )
        if _folds(policies):
            stream = fold(stream)
        return self._replay(stream, policies)

    def _policies(self, num_nodes: int) -> List[SelfInvalidationPolicy]:
        return [self._factory(node) for node in range(num_nodes)]

    def _replay(
        self, stream: CompiledStream, policies: List[SelfInvalidationPolicy]
    ) -> AccuracyReport:
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
        # every outcome of a block counts once per block it stands for
        weights = stream.weights or [1] * len(stream.blocks)
        upgrade = MissKind.UPGRADE
        misses = predicted = not_predicted = mispredicted = fired = 0

        for entry, bid in zip(stream.events, stream.ids):
            op, node, pc = table[entry]
            if op == SYNC:
                kind, sync_id = syncs[bid]
                for bid in on_sync[node](kind, sync_id):
                    if states[node][bid]:
                        drop(node, bid)
                        fired += weights[bid]
                continue
            if states[node][bid] > op:
                # plain hit: no directory action, nothing to verify
                if on_access[node](bid, pc, False, None, None):
                    drop(node, bid)
                    fired += weights[bid]
                continue
            weight = weights[bid]
            misses += weight
            premature, verified, victims, kind, version = miss(node, bid, op)
            # Verification outcomes precede the requester's own
            # bookkeeping.
            if premature:
                mispredicted += weight
                on_premature[node](bid)
            if verified:
                predicted += len(verified) * weight
                for other in verified:
                    on_verified[other](bid)
            if victims:
                not_predicted += len(victims) * weight
                for victim in victims:
                    on_invalidation[victim](bid)
            if on_access[node](bid, pc, kind is not upgrade, kind, version):
                drop(node, bid)
                fired += weight

        return AccuracyReport(
            workload=stream.name,
            policy=policies[0].name,
            predicted=predicted,
            not_predicted=not_predicted,
            mispredicted=mispredicted,
            unresolved=engine.unresolved_self_invalidations(weights),
            accesses=stream.accesses,
            coherence_misses=misses,
            self_invalidations=fired,
            storage=self._collect_storage(policies, weights),
        )

    @staticmethod
    def _collect_storage(
        policies: List[SelfInvalidationPolicy], weights: Sequence[int]
    ):
        reports: List[StorageReport] = [
            p.storage_report(weights) for p in policies
        ]
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
