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
from repro.core.base import DECISION_FIRE, DECISION_KEEP
from repro.dsi import DSIPolicy
from repro.errors import ConfigurationError
from repro.protocol.states import MissKind
from repro.sim import AccuracySimulator
from repro.sim import functional
from repro.sim.functional import compile_stream
from repro.trace.events import MemoryAccess, SyncBoundary, SyncKind
from repro.trace.io import parse_stream
from repro.trace.program import Access, Barrier, Program, ProgramSet
from tests.conftest import migratory_rmw, producer_consumer


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
    """One interleave per (ProgramSet, quantum, block_shift) per process,
    living exactly as long as the ProgramSet object."""

    @pytest.fixture
    def interleaves(self, monkeypatch):
        """Count calls to the interleaver the simulator compiles from,
        against a fresh runner ProgramSet memo."""
        from repro.runner import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_PROGRAMS", {})
        calls = []
        real = functional.interleave

        def counting(programs, quantum=1):
            calls.append((programs.name, quantum))
            return real(programs, quantum=quantum)

        monkeypatch.setattr(functional, "interleave", counting)
        return calls

    def test_fig6_fig7_and_oracle_share_one_interleave(self, interleaves):
        from repro.experiments import figure6, figure7
        from repro.runner import Runner
        from repro.runner.runner import _programs_for

        specs = figure6.jobs(size="tiny", workloads=["em3d"])
        specs += figure7.jobs(size="tiny", workloads=["em3d"])
        assert len(set(specs)) == 6
        Runner().run(specs)
        assert interleaves == [("em3d", 1)]

        programs = _programs_for(specs[0])
        AccuracySimulator(lambda n: NullPolicy()).run_oracle(programs)
        assert len(interleaves) == 1

    def test_quantum_and_block_shift_compile_their_own(self, interleaves):
        ps = producer_consumer(iterations=3)
        for kwargs in ({}, {"quantum": 2}, {"block_shift": 6}, {}):
            AccuracySimulator(lambda n: NullPolicy(), **kwargs).run(ps)
        # the last run is served by the first run's compile
        assert [quantum for _, quantum in interleaves] == [1, 2, 1]

    def test_entry_dropped_when_programs_are_collected(self):
        ps = producer_consumer(iterations=3)
        AccuracySimulator(lambda n: NullPolicy()).run(ps)
        key, alive = id(ps), weakref.ref(ps)
        assert key in functional._COMPILED
        del ps
        gc.collect()
        assert alive() is None
        assert key not in functional._COMPILED

    def test_memoized_replay_matches_a_fresh_compile(self, pc_workload):
        from repro.trace.scheduler import interleave

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


def _decode(stream, code):
    """One packed event back as the event it was compiled from."""
    node = (code >> 2) & ((1 << stream.node_bits) - 1)
    upper = code >> stream.top_shift
    if code & 3 == 2:
        kind, sync_id = stream.syncs[upper]
        return SyncBoundary(node, kind, sync_id)
    pc = stream.pcs[(code >> stream.pc_shift) & ((1 << stream.pc_bits) - 1)]
    address = stream.blocks[upper] << stream.block_shift
    return MemoryAccess(node, pc, address, bool(code & 1))


class TestCompileStream:
    def test_packing_round_trips_through_field_growth(self):
        # 300 distinct PCs widen the pc field twice (4 -> 8 -> 16 bits)
        # and 10,000 blocks then push the codes past 32 bits
        events = []
        for i in range(10_000):
            if i % 1000 == 0:
                events.append(SyncBoundary(1, SyncKind.BARRIER, i))
            events.append(
                MemoryAccess(i % 3, 0x4000 + 4 * (i % 300), 32 * i, i % 2 == 0)
            )
        stream = compile_stream(events, 3)
        assert stream.pc_bits == 16
        assert stream.codes.typecode == "Q"
        assert stream.accesses == 10_000
        assert [_decode(stream, code) for code in stream.codes] == events

    def test_small_stream_packs_four_bytes_per_event(self, pc_workload):
        from repro.trace.scheduler import interleave

        stream = compile_stream(interleave(pc_workload), pc_workload.num_nodes)
        assert stream.codes.itemsize == 4
        assert [
            _decode(stream, code) for code in stream.codes
        ] == list(interleave(pc_workload))


class _Recorder(SelfInvalidationPolicy):
    """Logs every callback; fires at the given node-local ordinals."""

    def __init__(self, node, fire_at, log):
        self.node, self.fire_at, self.log = node, fire_at, log
        self.ordinal = 0

    def on_access(self, block, pc, trace_start, miss_kind, version):
        self.log.append((self.node, "access", trace_start, miss_kind))
        fire = self.ordinal in self.fire_at
        self.ordinal += 1
        return DECISION_FIRE if fire else DECISION_KEEP

    def on_invalidation(self, block):
        self.log.append((self.node, "invalidation"))

    def on_verified_correct(self, block):
        self.log.append((self.node, "verified"))

    def on_premature(self, block):
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
