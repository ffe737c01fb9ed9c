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
an experiment sees the identical access sequence.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.base import StorageReport
from repro.core.storage import aggregate_reports
from repro.protocol.states import ProtocolVariant
from repro.sim.results import AccuracyReport
from repro.trace.events import MemoryAccess, SyncBoundary
from repro.trace.program import ProgramSet
from repro.trace.scheduler import interleave
from tests.oracle.coherence import CoherenceEngine
from tests.oracle.last_touch import compute_last_touch_ordinals
from tests.oracle.policies import OraclePolicy, SelfInvalidationPolicy

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

DEFAULT_BLOCK_SHIFT = 5


class ReferenceAccuracySimulator:
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
    ) -> "ReferenceAccuracySimulator":
        """Alias constructor; reads naturally at call sites."""
        return cls(policy_factory, **kwargs)

    def run(self, programs: ProgramSet) -> AccuracyReport:
        """Execute the workload and return the accuracy report."""
        return self.run_stream(
            interleave(programs, quantum=self._quantum),
            programs.num_nodes,
            name=programs.name,
        )

    def run_stream(
        self, events, num_nodes: int, name: str = "trace"
    ) -> AccuracyReport:
        """Run a pre-interleaved event stream (e.g. a replayed trace
        from :mod:`repro.trace.io`) through the coherence engine."""
        policies: Dict[int, SelfInvalidationPolicy] = {
            node: self._factory(node) for node in range(num_nodes)
        }
        engine = CoherenceEngine(
            num_nodes, block_shift=self._block_shift,
            variant=self._variant,
        )
        report = AccuracyReport(
            workload=name,
            policy=policies[0].name if num_nodes else "none",
        )

        for ev in events:
            if isinstance(ev, MemoryAccess):
                self._handle_access(ev, engine, policies, report)
            elif isinstance(ev, SyncBoundary):
                blocks = policies[ev.node].on_sync(ev.kind, ev.sync_id)
                for block in blocks:
                    if engine.holds(ev.node, block):
                        engine.self_invalidate(ev.node, block)
                        report.self_invalidations += 1

        report.unresolved = engine.unresolved_self_invalidations()
        report.storage = self._collect_storage(policies)
        return report

    def _handle_access(
        self,
        ev: MemoryAccess,
        engine: CoherenceEngine,
        policies: Dict[int, SelfInvalidationPolicy],
        report: AccuracyReport,
    ) -> None:
        res = engine.access(ev.node, ev.pc, ev.address, ev.is_write)
        report.accesses += 1
        if not res.hit:
            report.coherence_misses += 1

        # Verification outcomes precede the requester's own bookkeeping.
        if res.premature:
            report.mispredicted += 1
            policies[ev.node].on_premature(res.block)
        for node in res.verified_correct:
            report.predicted += 1
            policies[node].on_verified_correct(res.block)
        for inv in res.invalidations:
            report.not_predicted += 1
            policies[inv.node].on_invalidation(inv.block)

        decision = policies[ev.node].on_access(
            res.block, ev.pc, res.trace_start, res.miss_kind, res.version
        )
        if decision.self_invalidate:
            engine.self_invalidate(ev.node, res.block)
            report.self_invalidations += 1

    @staticmethod
    def _collect_storage(policies: Dict[int, SelfInvalidationPolicy]):
        reports: List[StorageReport] = [
            p.storage_report() for p in policies.values()
        ]
        if all(r.tracked_blocks == 0 for r in reports):
            return None
        return aggregate_reports(reports)

    # ------------------------------------------------------------------

    def run_oracle(self, programs: ProgramSet) -> AccuracyReport:
        """Two-pass oracle run: profile last touches, then fire exactly
        at them (the upper-bound ablation; see repro.core.oracle)."""
        ordinals = compute_last_touch_ordinals(
            interleave(programs, quantum=self._quantum),
            programs.num_nodes,
            block_shift=self._block_shift,
        )
        oracle_sim = ReferenceAccuracySimulator(
            lambda node: OraclePolicy(ordinals[node]),
            quantum=self._quantum,
            block_shift=self._block_shift,
            variant=self._variant,
        )
        return oracle_sim.run(programs)
