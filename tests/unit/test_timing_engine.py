"""Unit tests for the end-to-end timing simulator (repro.timing.engine)."""

import copy
import gc
import pickle
import weakref
from collections import Counter

import pytest

from repro.core import NullPolicy, PerBlockLTP
from repro.core.confidence import ConfidenceConfig
from repro.timing import SystemConfig, TimingSimulator
from repro.timing import engine as engine_mod
from repro.trace import program as program_mod
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from tests.conftest import producer_consumer

FAST = ConfidenceConfig(initial=3, predict_threshold=3)
CFG = SystemConfig(num_nodes=2)


def _ps(progs, n=2, name="t"):
    return ProgramSet(name, n, {i: p for i, p in enumerate(progs)})


def run_base(ps, cfg=CFG):
    return TimingSimulator(lambda n: NullPolicy(), cfg).run(ps)


class TestLatencies:
    def test_clean_miss_costs_one_round_trip(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x10, 0x1000, False))
        rep = run_base(_ps([p0, p1]))
        # 1 cycle issue + 416-cycle round trip, no queueing
        assert rep.execution_cycles == pytest.approx(1 + 416)

    def test_hits_cost_hit_cycles(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x10, 0x1000, False))
        for _ in range(10):
            p0.append(Access(0x14, 0x1000, False))
        rep = run_base(_ps([p0, p1]))
        assert rep.hits == 10
        assert rep.execution_cycles == pytest.approx(1 + 416 + 10)

    def test_work_cycles_accrue(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x10, 0x1000, False, work=500))
        rep = run_base(_ps([p0, p1]))
        assert rep.execution_cycles == pytest.approx(501 + 416)

    def test_three_hop_dearer_than_two_hop(self):
        # 2-hop: node 1 reads an idle block.
        p0, p1 = Program(0), Program(1)
        p1.append(Access(0x10, 0x1000, False))
        two_hop = run_base(_ps([p0, p1])).execution_cycles
        # 3-hop: node 0 writes first, then node 1 reads (owner fetch).
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x20, 0x1000, True))
        p0.append(Barrier(1))
        p1.append(Barrier(1))
        p1.append(Access(0x10, 0x1000, False))
        three_hop = run_base(_ps([p0, p1])).execution_cycles
        assert three_hop > two_hop + 160  # at least two extra hops

    def test_external_invalidations_counted(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x20, 0x1000, True))
        p0.append(Barrier(1))
        p1.append(Barrier(1))
        p1.append(Access(0x10, 0x1000, False))
        rep = run_base(_ps([p0, p1]))
        assert rep.external_invalidations == 1


class TestBarriers:
    def test_barrier_synchronizes_clocks(self):
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x10, 0x1000, False, work=5000))
        p0.append(Barrier(1))
        p1.append(Barrier(1))
        p1.append(Access(0x20, 0x2000, False))
        rep = run_base(_ps([p0, p1]))
        # node 1's access starts only after node 0's long phase
        assert rep.per_node_finish[1] > 5000

    def test_all_nodes_finish(self):
        progs = [Program(i) for i in range(4)]
        for p in progs:
            p.append(Barrier(1))
            p.append(Barrier(2))
        rep = run_base(_ps(progs, n=4), SystemConfig(num_nodes=4))
        assert len(rep.per_node_finish) == 4


class TestLocksTiming:
    def _lock_program(self, node, spins=1):
        p = Program(node)
        p.append(LockAcquire(1, 0x5000, 0x10, 0x14, fixed_spins=spins))
        p.append(Access(0x20, 0x6000, True, work=100))
        p.append(LockRelease(1, 0x5000, 0x18))
        return p

    def test_critical_sections_serialize(self):
        ps = _ps([self._lock_program(0), self._lock_program(1)])
        rep = run_base(ps)
        solo = run_base(
            _ps([self._lock_program(0), Program(1)])
        ).execution_cycles
        # two serialized critical sections take meaningfully longer
        assert rep.execution_cycles > solo * 1.5

    def test_lock_traffic_visible_in_stats(self):
        ps = _ps([self._lock_program(0), self._lock_program(1)])
        rep = run_base(ps)
        # spin read + test&set + CS write + unlock per node, minus hits
        assert rep.accesses == 8


class TestSelfInvalidationTiming:
    def _producer_consumer(self, iters=8):
        p0, p1 = Program(0), Program(1)
        bid = 0
        for _ in range(iters):
            p0.append(Access(0x100, 0x1000, True))
            bid += 1
            p0.append(Barrier(bid))
            p1.append(Barrier(bid))
            p1.append(Access(0x200, 0x1000, False))
            bid += 1
            p0.append(Barrier(bid))
            p1.append(Barrier(bid))
        return _ps([p0, p1], name="pc")

    def test_ltp_fires_and_is_timely(self):
        ps = self._producer_consumer()
        rep = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), CFG
        ).run(ps)
        assert rep.selfinval.fired > 0
        assert rep.selfinval.timely_correct > 0
        assert rep.selfinval.timeliness > 0.8

    def test_ltp_speeds_up_producer_consumer(self):
        ps = self._producer_consumer(iters=12)
        base = run_base(ps)
        ltp = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), CFG
        ).run(ps)
        assert ltp.speedup_over(base) > 1.02

    def test_si_eliminates_invalidations(self):
        ps = self._producer_consumer(iters=12)
        base = run_base(ps)
        ltp = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), CFG
        ).run(ps)
        assert ltp.external_invalidations < base.external_invalidations

    def test_storage_attached(self):
        ps = self._producer_consumer()
        rep = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), CFG
        ).run(ps)
        assert rep.storage is not None
        assert rep.storage.tracked_blocks > 0


class TestNodeCountAdaptation:
    def test_config_adapts_to_programs(self):
        """A 32-node default config runs a 2-node program set."""
        p0, p1 = Program(0), Program(1)
        p0.append(Access(0x10, 0x1000, False))
        rep = TimingSimulator(lambda n: NullPolicy()).run(_ps([p0, p1]))
        assert len(rep.per_node_finish) == 2

    def test_report_policy_name(self):
        p0, p1 = Program(0), Program(1)
        rep = TimingSimulator(lambda n: NullPolicy()).run(_ps([p0, p1]))
        assert rep.policy == "base"
        assert rep.summary()


class TestCompileMemo:
    """One validate and compile per (ProgramSet, block size) per
    process, living exactly as long as the ProgramSet object."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Record every validate and timing compile, against a fresh
        runner ProgramSet memo."""
        from repro.runner import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_PROGRAMS", {})
        calls = {"validate": [], "compile": []}
        validate = ProgramSet.validate
        compile_programs = engine_mod.compile_programs

        def counting_validate(programs):
            calls["validate"].append(programs)
            validate(programs)

        def counting_compile(programs, block_shift, num_nodes):
            calls["compile"].append((programs, block_shift))
            return compile_programs(programs, block_shift, num_nodes)

        monkeypatch.setattr(ProgramSet, "validate", counting_validate)
        monkeypatch.setattr(engine_mod, "compile_programs", counting_compile)
        return calls

    def test_fig9_and_si_delay_compile_each_trace_once(self, compiles):
        from repro.experiments import figure9, si_delay
        from repro.runner import Runner
        from repro.runner.runner import _programs_for

        specs = figure9.jobs(size="tiny") + si_delay.jobs(size="tiny")
        traces = {id(p): p for p in map(_programs_for, specs)}
        assert len(set(specs)) > len(traces)
        Runner().run(specs)
        # the builds validate; the compiles reuse that pass
        once = {key: 1 for key in traces}
        assert Counter(id(p) for p in compiles["validate"]) == once
        assert Counter(id(p) for p, _ in compiles["compile"]) == once

    def test_another_block_shift_compiles_its_own(self, compiles):
        ps = producer_consumer(iterations=3)
        wide = SystemConfig(num_nodes=2, block_shift=6)
        for cfg in (CFG, wide, CFG):
            run_base(ps, cfg)
        # the last run is served by the first run's compile
        assert [shift for _, shift in compiles["compile"]] == [5, 6]
        # validation does not depend on the block size: once per object
        assert len(compiles["validate"]) == 1

    def test_entry_dropped_when_programs_are_collected(self):
        ps = producer_consumer(iterations=3)
        run_base(ps)
        key, alive = id(ps), weakref.ref(ps)
        assert ("timing", 5, 2) in program_mod._COMPILED[key]
        del ps
        gc.collect()
        assert alive() is None
        assert key not in program_mod._COMPILED

    def test_memoized_runs_match_a_fresh_compile(self):
        ps = producer_consumer(iterations=6)
        sim = TimingSimulator(lambda n: PerBlockLTP(confidence=FAST), CFG)
        first, again = sim.run(ps), sim.run(ps)
        fresh = sim.run(copy.deepcopy(ps))
        assert pickle.dumps(first) == pickle.dumps(again)
        assert pickle.dumps(again) == pickle.dumps(fresh)

    def test_equal_step_tuples_are_one_object(self):
        ps = producer_consumer(iterations=4)
        steps, _, _ = engine_mod.compile_programs(ps, 5, 2)
        consumer = steps[1]
        reads = [op for op in consumer if op[0] == engine_mod.OP_ACCESS]
        assert len(reads) == 4
        assert all(op is reads[0] for op in reads)
