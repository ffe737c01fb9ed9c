"""Unit tests for the hybrid LTP+DSI policy (repro.ext.hybrid)."""

from repro.core.confidence import ConfidenceConfig
from repro.ext.hybrid import HybridPolicy
from repro.experiments import hybrid as hybrid_experiment
from repro.protocol.states import MissKind
from repro.sim import AccuracySimulator
from repro.trace.events import SyncKind
from tests.conftest import producer_consumer
from tests.unit.test_ltp import bound

FAST = ConfidenceConfig(initial=3, predict_threshold=3)


def fetch(policy, block, version, kind=MissKind.READ_FETCH, pc=0x10):
    return policy.on_access(block, pc, True, kind, version)


class TestVeto:
    def _trained_policy(self, completions=3):
        """LTP confident on block 1 after `completions` full traces."""
        policy = bound(HybridPolicy(confidence=FAST, min_training=3))
        for _ in range(completions):
            fetch(policy, 1, version=2)
            policy.on_invalidation(1)
        return policy

    def test_ltp_coverage_vetoes_dsi_burst(self):
        policy = self._trained_policy()
        # make block 1 a DSI candidate again
        fetch(policy, 1, version=5)
        assert policy.on_sync(SyncKind.BARRIER, 1) == []
        assert policy.vetoed >= 1

    def test_training_grace_period_vetoes_early_bursts(self):
        policy = bound(HybridPolicy(confidence=FAST, min_training=3))
        fetch(policy, 1, version=0)
        policy.on_invalidation(1)
        fetch(policy, 1, version=2)  # candidate, but only 1 completion
        assert policy.on_sync(SyncKind.BARRIER, 1) == []

    def test_uncovered_trained_block_falls_back_to_dsi(self):
        """Chaotic traces: completions accumulate but no signature is
        ever confirmed twice, so none saturates (default confidence:
        insert at 2, fire at 3) -> DSI takes over."""
        policy = bound(HybridPolicy(min_training=3))  # default confidence
        for i in range(4):
            # a different trace every time: never learned twice
            fetch(policy, 1, version=2 * i, pc=0x100 + 8 * i)
            policy.on_access(1, 0x500 + 8 * i, False, None, None)
            policy.on_invalidation(1)
        fetch(policy, 1, version=99, pc=0x999)
        assert policy.on_sync(SyncKind.BARRIER, 1) == [1]

    def test_ltp_still_fires_per_access(self):
        policy = self._trained_policy()
        # single-touch trace: confident signature fires at the fetch
        assert fetch(policy, 1, version=9)


class TestEndToEnd:
    def test_hybrid_matches_ltp_on_stable_sharing(self):
        ps = producer_consumer(iterations=30)
        ltp_rep = AccuracySimulator(
            lambda n: HybridPolicy()
        ).run(ps)
        assert ltp_rep.predicted_fraction > 0.8

    def test_experiment_runs(self):
        res = hybrid_experiment.run(size="tiny",
                                    workloads=["em3d", "barnes"])
        text = res.render()
        assert "hybrid" in text
        by = res.reports["barnes"]
        # the fallback must not make barnes worse than plain LTP
        assert by["hybrid"].predicted_fraction >= \
            by["ltp"].predicted_fraction - 0.05
