"""Byte-identical conformance of the timing engine to its oracle.

The readable reference core in ``tests/oracle/``
(:class:`ReferenceTimingSimulator`, driving the reference policies) is
the oracle; the shipped engine (:class:`TimingSimulator`, driving the
package's policies) must reproduce its :class:`TimingReport` pickle
byte for byte across the behavioral surface the paper grid
exercises: every policy, both protocol variants, forwarding on and
off, prompt and delayed self-invalidation, real registry workloads and
the synthetic sharing patterns, and the runner's path from a
:class:`~repro.runner.spec.JobSpec` to the engine.
"""

import pickle

import pytest

from repro.experiments import EXPERIMENTS
from repro.protocol.states import ProtocolVariant
from repro.runner.runner import execute_spec
from repro.runner.spec import PolicySpec, POLICY_NAMES
from repro.timing import SystemConfig, TimingSimulator
from repro.timing.engine import EVENT_KIND_NAMES
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    build_program_set,
    get_workload,
)
from tests.conftest import migratory_rmw, producer_consumer
from tests.oracle import ReferenceTimingSimulator, reference_factory


def _cores(spec):
    """(core, policy factory) pairs for ``spec``, reference first."""
    return (
        (ReferenceTimingSimulator, reference_factory(spec)),
        (TimingSimulator, spec.build),
    )


def _reports(programs, policy="ltp", **kwargs):
    """One TimingReport pickle per core (reference first), same
    configuration."""
    return [
        pickle.dumps(core(factory, **kwargs).run(programs))
        for core, factory in _cores(PolicySpec(name=policy))
    ]


def _assert_identical(programs, **kwargs):
    ref, fast = _reports(programs, **kwargs)
    assert ref == fast


class TestPaperGridCells:
    """The full knob cross-product on one real workload."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("variant", list(ProtocolVariant))
    def test_policy_by_variant(self, policy, variant):
        programs = build_program_set("em3d", "tiny")
        _assert_identical(programs, policy=policy, variant=variant)

    @pytest.mark.parametrize("forwarding", [False, True])
    @pytest.mark.parametrize("si_fire_delay", [0, 150])
    def test_forwarding_by_delay(self, forwarding, si_fire_delay):
        programs = build_program_set("em3d", "tiny")
        _assert_identical(
            programs,
            forwarding=forwarding,
            si_fire_delay=si_fire_delay,
        )

    def test_everything_at_once(self):
        """All the non-default knobs together in one cell."""
        programs = build_program_set("ocean", "tiny")
        _assert_identical(
            programs,
            policy="hybrid",
            variant=ProtocolVariant.DOWNGRADE,
            forwarding=True,
            si_fire_delay=90,
        )


class TestWorkloadSweep:
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_registry_workload(self, workload):
        programs = build_program_set(workload, "tiny")
        _assert_identical(
            programs, policy="ltp", forwarding=True, si_fire_delay=150
        )


class TestSyntheticPatterns:
    def test_producer_consumer(self):
        _assert_identical(
            producer_consumer(iterations=15, num_consumers=3),
            policy="ltp",
            si_fire_delay=40,
        )

    def test_migratory(self):
        _assert_identical(
            migratory_rmw(iterations=15, nodes=4), policy="dsi"
        )

    def test_custom_config(self):
        _assert_identical(
            producer_consumer(iterations=10),
            policy="last-pc",
            config=SystemConfig(
                num_nodes=2, network_latency=33, engine_occupancy=7
            ),
        )


class TestEventCountParity:
    """Both cores expose ``event_counts`` and — because they inline
    the same immediate operations — count every dispatched event kind
    identically, so the counts ``repro profile`` and the
    ``repro_engine_events_total`` metric report are the oracle's."""

    @pytest.mark.parametrize("si_fire_delay", [0, 150])
    def test_counts_match_exactly(self, si_fire_delay):
        programs = build_program_set("em3d", "tiny")
        counts = []
        for core, factory in _cores(PolicySpec(name="ltp")):
            engine = core(
                factory,
                forwarding=True,
                si_fire_delay=si_fire_delay,
            )
            engine.run(programs)
            counts.append(engine.event_counts)
        ref, fast = counts
        assert ref == fast
        assert ref  # non-empty: the workload scheduled real events
        assert all(n >= 0 for n in ref.values())
        assert set(ref) == set(EVENT_KIND_NAMES)


class TestRunnerPath:
    """Runner traffic reaches the shipped engine with every knob a
    timing spec carries: the runner's report for each spec is the
    oracle's, built straight from the same spec."""

    @pytest.mark.parametrize(
        "experiment", ["fig9", "forwarding", "variants", "si-delay"]
    )
    def test_runner_reports_match_the_oracle(self, experiment):
        specs = [
            spec
            for spec in dict.fromkeys(
                EXPERIMENTS[experiment].jobs(
                    size="tiny", workloads=["em3d"]
                )
            )
            if spec.kind == "timing"
        ]
        assert specs
        for spec in specs:
            programs = get_workload(
                spec.workload, spec.size, **dict(spec.overrides)
            ).build()
            oracle = ReferenceTimingSimulator(
                reference_factory(spec.policy),
                config=spec.config,
                variant=ProtocolVariant[spec.variant.upper()],
                forwarding=spec.forwarding,
                si_fire_delay=spec.si_fire_delay,
            )
            assert pickle.dumps(execute_spec(spec)) == pickle.dumps(
                oracle.run(programs)
            ), spec.canonical()
