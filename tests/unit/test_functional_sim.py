"""Unit tests for the accuracy simulator (repro.sim.functional)."""

import gc
import weakref

import pytest

from repro.core import (
    ConfidenceConfig,
    LastPCPredictor,
    NullPolicy,
    PerBlockLTP,
    SelfInvalidationPolicy,
)
from repro.dsi import DSIPolicy
from repro.errors import ConfigurationError
from repro.protocol.states import MissKind
from repro.runner.spec import PolicySpec
from repro.sim import AccuracySimulator
from repro.sim import functional
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace import program as program_mod
from repro.trace.io import parse_stream
from repro.trace.program import Access, Barrier, Program, ProgramSet
from repro.trace.scheduler import (
    compile_stream,
    decode_stream,
    fold,
    interleave,
    schedule,
)
from tests.conftest import migratory_rmw, producer_consumer
from tests.integration.test_report_digests import digest
from tests.oracle import ReferenceAccuracySimulator, reference_factory
from tests.oracle import policies as reference


class TestBasePolicy:
    def test_base_never_predicts(self, pc_workload):
        rep = AccuracySimulator(lambda n: NullPolicy()).run(pc_workload)
        assert rep.predicted == 0
        assert rep.mispredicted == 0
        assert rep.self_invalidations == 0
        assert rep.not_predicted > 0

    def test_denominator_identity(self, pc_workload):
        """predicted + not_predicted must equal the base system's
        invalidations (verified SIs replace externals one for one)."""
        base = AccuracySimulator(lambda n: NullPolicy()).run(pc_workload)
        ltp = AccuracySimulator(lambda n: PerBlockLTP()).run(pc_workload)
        assert ltp.total_invalidations == base.total_invalidations

    def test_accesses_counted(self, pc_workload):
        rep = AccuracySimulator(lambda n: NullPolicy()).run(pc_workload)
        assert rep.accesses == pc_workload.total_steps() - sum(
            1 for p in pc_workload.programs.values()
            for s in p.steps if not hasattr(s, "address")
        )


class TestLTPOnCanonicalPatterns:
    def test_producer_consumer_learned(self):
        ps = producer_consumer(iterations=40)
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(ps)
        assert rep.predicted_fraction > 0.85
        assert rep.mispredicted_fraction < 0.05

    def test_migratory_learned(self):
        ps = migratory_rmw(iterations=40)
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(ps)
        assert rep.predicted_fraction > 0.8

    def test_multi_writes_defeat_last_pc_not_ltp(self):
        ps = producer_consumer(iterations=40, writes_per_iter=1)
        # one write per iteration, unique PC: Last-PC fine
        rep = AccuracySimulator(lambda n: LastPCPredictor()).run(ps)
        assert rep.predicted_fraction > 0.85

    def test_training_period_is_not_predicted(self):
        ps = producer_consumer(iterations=6)
        rep = AccuracySimulator(
            lambda n: PerBlockLTP(
                confidence=ConfidenceConfig(initial=2, predict_threshold=3)
            )
        ).run(ps)
        # two iterations of training per (node, block) trace
        assert 0 < rep.predicted < rep.total_invalidations


class TestOracle:
    def test_oracle_predicts_everything(self, pc_workload):
        rep = AccuracySimulator(lambda n: NullPolicy()).run_oracle(
            pc_workload
        )
        assert rep.predicted_fraction == pytest.approx(1.0)
        assert rep.mispredicted == 0

    def test_oracle_on_migratory(self):
        ps = migratory_rmw(iterations=15)
        rep = AccuracySimulator(lambda n: NullPolicy()).run_oracle(ps)
        assert rep.predicted_fraction == pytest.approx(1.0)

    def test_oracle_dominates_ltp(self, pc_workload):
        sim = AccuracySimulator(lambda n: PerBlockLTP())
        ltp = sim.run(pc_workload)
        oracle = sim.run_oracle(pc_workload)
        assert oracle.predicted_fraction >= ltp.predicted_fraction


class TestDSIIntegration:
    def test_dsi_predicts_producer_consumer(self):
        """Write-fetch producers and read-fetch consumers are both
        versioning candidates; barrier-triggered SI verifies correct."""
        ps = producer_consumer(iterations=30, num_consumers=2)
        rep = AccuracySimulator(lambda n: DSIPolicy()).run(ps)
        assert rep.predicted_fraction > 0.6

    def test_dsi_misses_migratory(self):
        """Read-modify-write token passing: every fetch upgrades, the
        migratory exclusion keeps DSI out entirely."""
        ps = migratory_rmw(iterations=30)
        rep = AccuracySimulator(lambda n: DSIPolicy()).run(ps)
        assert rep.predicted_fraction < 0.1


class TestReportRendering:
    def test_summary_contains_key_fields(self, pc_workload):
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(pc_workload)
        text = rep.summary()
        assert "producer-consumer" in text
        assert "ltp" in text


class TestCompiledStreamMemo:
    """One stream build per (ProgramSet, quantum, block_shift) per
    process, living exactly as long as the ProgramSet object."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the schedule loop's stream builds, against a fresh
        runner ProgramSet memo."""
        from repro.runner import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_PROGRAMS", {})
        calls = []
        real = functional.schedule

        def counting(programs, quantum, block_shift):
            calls.append((programs.name, quantum))
            return real(programs, quantum, block_shift)

        monkeypatch.setattr(functional, "schedule", counting)
        return calls

    def test_fig6_fig7_and_oracle_share_one_interleave(self, builds):
        from repro.experiments import figure6, figure7
        from repro.runner import Runner
        from repro.runner.runner import _programs_for

        specs = figure6.jobs(size="tiny", workloads=["em3d"])
        specs += figure7.jobs(size="tiny", workloads=["em3d"])
        assert len(set(specs)) == 6
        Runner().run(specs)
        assert builds == [("em3d", 1)]

        programs = _programs_for(specs[0])
        AccuracySimulator(lambda n: NullPolicy()).run_oracle(programs)
        assert len(builds) == 1

    def test_quantum_and_block_shift_compile_their_own(self, builds):
        ps = producer_consumer(iterations=3)
        for kwargs in ({}, {"quantum": 2}, {"block_shift": 6}, {}):
            AccuracySimulator(lambda n: NullPolicy(), **kwargs).run(ps)
        # the last run is served by the first run's compile
        assert [quantum for _, quantum in builds] == [1, 2, 1]

    def test_entry_dropped_when_programs_are_collected(self):
        ps = producer_consumer(iterations=3)
        AccuracySimulator(lambda n: NullPolicy()).run(ps)
        key, alive = id(ps), weakref.ref(ps)
        assert key in program_mod._COMPILED
        del ps
        gc.collect()
        assert alive() is None
        assert key not in program_mod._COMPILED

    def test_memoized_replay_matches_a_fresh_compile(self, pc_workload):
        sim = AccuracySimulator(lambda n: PerBlockLTP())
        first, again = sim.run(pc_workload), sim.run(pc_workload)
        fresh = sim.run_stream(
            interleave(pc_workload), pc_workload.num_nodes,
            name=pc_workload.name,
        )
        assert first == again == fresh


class TestReplayedStreamNodes:
    """run_stream replays traces from outside the program, so the
    compile step bounds every event's node."""

    @pytest.mark.parametrize("line", [
        "A 2 10 40 W",       # one past the last node
        "A -1 10 40 W",      # negative: would alias node 1
        "S 2 barrier 1",
    ])
    def test_out_of_range_node_rejected(self, line):
        num_nodes, events = parse_stream(f"#nodes 2\nA 0 10 40 R\n{line}\n")
        with pytest.raises(ConfigurationError, match="outside 0..1"):
            AccuracySimulator(lambda n: NullPolicy()).run_stream(
                events, num_nodes
            )

    def test_in_range_trace_replays(self):
        num_nodes, events = parse_stream(
            "#nodes 2\nA 0 10 40 W\nA 1 14 40 R\nS 1 barrier 1\n"
        )
        rep = AccuracySimulator(lambda n: NullPolicy()).run_stream(
            events, num_nodes
        )
        assert rep.accesses == 2
        assert rep.not_predicted == 1


class TestCompileStream:
    def test_round_trip_through_widening(self):
        # 301 distinct (op, node, pc) entries widen the event array to
        # two bytes, and 70,000 blocks the id array to four
        events = []
        for i in range(70_000):
            if i % 1000 == 0:
                events.append(SyncBoundary(1, SyncKind.BARRIER, i))
            events.append(
                MemoryAccess(i % 3, 0x4000 + 4 * (i % 300), 32 * i, i % 2 == 0)
            )
        stream = compile_stream(events, 3, 5)
        assert len(stream.table) == 301
        assert stream.events.typecode == "H"
        assert stream.ids.typecode == "I"
        assert stream.accesses == 70_000
        assert list(decode_stream(stream)) == events

    def test_small_stream_takes_one_byte_per_array(self, pc_workload):
        stream = schedule(pc_workload, 1, 5)
        assert stream.events.itemsize == stream.ids.itemsize == 1
        assert len(stream.events) == len(stream.ids) > stream.accesses > 0


class _Recorder(SelfInvalidationPolicy):
    """Logs every callback; fires at the given node-local ordinals."""

    def __init__(self, node, fire_at, log):
        self.node, self.fire_at, self.log = node, fire_at, log
        self.ordinal = 0

    def on_access(self, bid, pc, trace_start, miss_kind, version):
        self.log.append((self.node, "access", trace_start, miss_kind))
        fire = self.ordinal in self.fire_at
        self.ordinal += 1
        return fire

    def on_invalidation(self, bid):
        self.log.append((self.node, "invalidation"))

    def on_verified_correct(self, bid):
        self.log.append((self.node, "verified"))

    def on_premature(self, bid):
        self.log.append((self.node, "premature"))


class TestCallbackOrder:
    def test_outcomes_reach_policies_in_protocol_order(self):
        """Five nodes read one block; nodes 0 and 2 self-invalidate on
        that read, node 1 on a later re-read, so the verification mask
        holds 0, 2, 1 in that order. Node 0's write then reports its own
        premature self-invalidation, verifies 2 and 1 in mask order,
        invalidates the remaining sharers 3 and 4 in ascending order,
        and only then sees its own access."""
        address = 0x1000
        programs = {n: Program(n) for n in range(5)}
        for n, prog in programs.items():
            prog.append(Access(0x10 + n, address, False))
            prog.append(Barrier(1))
            if n == 1:
                prog.append(Access(0x20, address, False))
            prog.append(Barrier(2))
        programs[0].append(Access(0x30, address, True))
        ps = ProgramSet("mask-order", 5, programs)
        fire_at = {0: {0}, 1: {1}, 2: {0}}
        log = []
        rep = AccuracySimulator(
            lambda n: _Recorder(n, fire_at.get(n, set()), log)
        ).run(ps)
        read = MissKind.READ_FETCH
        assert log == [
            (0, "access", True, read), (1, "access", True, read),
            (2, "access", True, read), (3, "access", True, read),
            (4, "access", True, read),
            (1, "access", False, None),
            (0, "premature"), (2, "verified"), (1, "verified"),
            (3, "invalidation"), (4, "invalidation"),
            (0, "access", True, MissKind.WRITE_FETCH),
        ]
        assert (rep.mispredicted, rep.predicted, rep.not_predicted) == (
            1, 2, 2
        )
        assert rep.self_invalidations == 3 and rep.unresolved == 0


def mirrored_pair(rounds=6, first_pc_b=0x100):
    """Node 0 produces block A for node 1 and node 1 produces block B
    for node 0, so B's history is A's with the two nodes swapped. The
    producer writes at a new pc each round (a trace it never sees
    again) and the consumer always reads at one, so only the consumer
    learns to predict. B's producer first writes at ``first_pc_b``."""
    a, b = 0x1000, 0x2000
    programs = {0: Program(0), 1: Program(1)}
    for phase in range(rounds):
        pc = 0x100 + 4 * phase
        programs[0].append(Access(pc, a, True))
        programs[1].append(Access(pc if phase else first_pc_b, b, True))
        for prog in programs.values():
            prog.append(Barrier(2 * phase))
        programs[1].append(Access(0x14, a, False))
        programs[0].append(Access(0x14, b, False))
        for prog in programs.values():
            prog.append(Barrier(2 * phase + 1))
    return ProgramSet("mirrored", 2, programs)


class TestFoldedReplay:
    """Block-local policies replay one block per class of histories
    equal up to a renaming of nodes, weighted by the class's size."""

    @pytest.fixture
    def replayed(self, monkeypatch):
        """The streams AccuracySimulator._replay is handed."""
        streams = []
        real = AccuracySimulator._replay

        def spy(self, stream, policies):
            streams.append(stream)
            return real(self, stream, policies)

        monkeypatch.setattr(AccuracySimulator, "_replay", spy)
        return streams

    def test_mirrored_blocks_fold_into_one_of_weight_two(self):
        full = schedule(mirrored_pair(), 1, 5)
        folded = fold(full)
        assert folded.blocks == [0x1000 >> 5]
        assert folded.weights == [2]
        assert folded.syncs == []
        assert folded.accesses == full.accesses == 24
        assert list(decode_stream(folded)) == [
            ev for ev in decode_stream(full)
            if isinstance(ev, MemoryAccess) and ev.address == 0x1000
        ]

    def test_one_changed_pc_does_not_fold(self):
        folded = fold(schedule(mirrored_pair(first_pc_b=0x18), 1, 5))
        assert folded.blocks == [0x1000 >> 5, 0x2000 >> 5]
        assert folded.weights == [1, 1]

    @pytest.mark.parametrize("num_nodes, pcs", [(2, 300), (300, 1)])
    def test_wide_tables_and_node_counts_fold_alike(self, num_nodes, pcs):
        """Past 256 table entries, or past 256 nodes, the histories no
        longer fit a byte per access; the classes are the same."""
        last = num_nodes - 1
        events = [
            MemoryAccess(0, 0x10, 0x1000, True),
            MemoryAccess(last, 0x10, 0x2000, True),
            MemoryAccess(last, 0x14, 0x1000, False),
            MemoryAccess(0, 0x14, 0x2000, False),
        ] + [MemoryAccess(0, 0x100 + 4 * i, 0x3000, False) for i in range(pcs)]
        stream = compile_stream(events, num_nodes, 5)
        assert stream.events.typecode == "H" or num_nodes > 256
        folded = fold(stream)
        assert folded.blocks == [0x1000 >> 5, 0x3000 >> 5]
        assert folded.weights == [2, 1]

    @pytest.mark.parametrize("name", ["base", "last-pc", "ltp"])
    def test_block_local_policies_fold(self, replayed, name):
        spec = PolicySpec(name=name)
        ps = mirrored_pair()
        report = AccuracySimulator(spec.build).run(ps)
        assert [stream.weights for stream in replayed] == [[2]]
        ref = ReferenceAccuracySimulator(reference_factory(spec)).run(ps)
        assert digest(report) == digest(ref)

    @pytest.mark.parametrize("name", ["dsi", "ltp-global", "hybrid"])
    def test_other_policies_never_fold(self, replayed, name):
        spec = PolicySpec(name=name)
        assert spec.build(0).block_local_config() is None
        ps = mirrored_pair()
        AccuracySimulator(spec.build).run(ps)
        assert [stream.weights for stream in replayed] == [None]
        # nor does a process that ran only these fold at all
        assert ("accuracy-folded", 1, 5) not in program_mod._COMPILED[id(ps)]

    def test_the_oracle_never_folds(self, replayed):
        AccuracySimulator(lambda n: NullPolicy()).run_oracle(mirrored_pair())
        assert [stream.weights for stream in replayed] == [None]

    def test_nodes_configured_apart_replay_the_full_stream(self, replayed):
        """Node 0 fires from its first confirmation on and node 1 only
        once saturated. Only the consumer learns, and node 1 consumes
        block A while node 0 consumes block B, so the two blocks part
        ways although their histories fold."""

        def confidence(node):
            return ConfidenceConfig(
                initial=2, predict_threshold=2 if node == 0 else 3
            )

        ps = mirrored_pair()
        report = AccuracySimulator(
            lambda n: PerBlockLTP(confidence=confidence(n))
        ).run(ps)
        assert [stream.weights for stream in replayed] == [None]
        ref = ReferenceAccuracySimulator(
            lambda n: reference.PerBlockLTP(confidence=confidence(n))
        ).run(ps)
        assert digest(report) == digest(ref)

    def test_run_stream_folds(self, replayed):
        ps = mirrored_pair()
        events = list(interleave(ps))
        report = AccuracySimulator(lambda n: PerBlockLTP()).run_stream(
            events, 2, name=ps.name
        )
        assert [stream.weights for stream in replayed] == [[2]]
        ref = ReferenceAccuracySimulator(lambda n: reference.PerBlockLTP())
        assert digest(report) == digest(ref.run_stream(events, 2, name=ps.name))
