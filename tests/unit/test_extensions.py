"""Unit tests for the extension features: protocol variants, finite
tables, consumer-prediction forwarding, trace IO, and export."""

import io

import pytest

from repro.core import NullPolicy, PerBlockLTP
from repro.core.confidence import ConfidenceConfig, CounterTable
from repro.errors import ConfigurationError
from repro.ext.sharing import ConsumerPredictor, ForwardingStats
from repro.protocol.coherence import CoherenceEngine
from repro.protocol.states import CacheState, DirState, ProtocolVariant
from repro.sim import AccuracySimulator
from repro.timing import TimingSimulator
from repro.trace.io import load_stream, parse_stream, save_stream
from repro.trace.scheduler import interleave
from tests.conftest import producer_consumer

FAST = ConfidenceConfig(initial=3, predict_threshold=3)
A = 0x1000


class TestDowngradeVariantFunctional:
    def test_read_downgrades_writer(self):
        engine = CoherenceEngine(3, variant=ProtocolVariant.DOWNGRADE)
        engine.access(0, 0x10, A, True)
        res = engine.access(1, 0x20, A, False)
        # no invalidation: the writer keeps a read-only copy
        assert res.invalidations == []
        block = engine.block_of(A)
        assert engine.cache_state(0, block) is CacheState.SHARED
        ent = engine.entry(block)
        assert ent.state is DirState.SHARED
        assert ent.sharers == {0, 1}
        assert engine.downgrades == 1

    def test_writer_read_hits_after_downgrade(self):
        engine = CoherenceEngine(2, variant=ProtocolVariant.DOWNGRADE)
        engine.access(0, 0x10, A, True)
        engine.access(1, 0x20, A, False)
        assert engine.access(0, 0x14, A, False).hit

    def test_writer_rewrite_is_upgrade(self):
        engine = CoherenceEngine(2, variant=ProtocolVariant.DOWNGRADE)
        engine.access(0, 0x10, A, True)
        engine.access(1, 0x20, A, False)
        res = engine.access(0, 0x14, A, True)
        from repro.protocol.states import MissKind

        assert res.miss_kind is MissKind.UPGRADE
        assert [i.node for i in res.invalidations] == [1]

    def test_fewer_invalidations_than_invalidate_variant(self):
        ps = producer_consumer(iterations=20)
        inv = AccuracySimulator(
            lambda n: NullPolicy(), variant=ProtocolVariant.INVALIDATE
        ).run(ps)
        down = AccuracySimulator(
            lambda n: NullPolicy(), variant=ProtocolVariant.DOWNGRADE
        ).run(ps)
        assert down.total_invalidations < inv.total_invalidations


class TestDowngradeVariantTiming:
    def test_timing_run_completes_and_is_cheaper(self):
        ps = producer_consumer(iterations=15)
        inv = TimingSimulator(
            lambda n: NullPolicy(), variant=ProtocolVariant.INVALIDATE
        ).run(ps)
        down = TimingSimulator(
            lambda n: NullPolicy(), variant=ProtocolVariant.DOWNGRADE
        ).run(ps)
        # the producer re-writes via 2-hop upgrade instead of 3-hop
        # fetch; consumers are unchanged
        assert down.external_invalidations < inv.external_invalidations


class TestFiniteTables:
    def test_counter_table_capacity_evicts_lru(self):
        table = CounterTable(ConfidenceConfig(), max_entries=2)
        table.learn("a")
        table.learn("b")
        table.learn("a")  # refresh a
        table.learn("c")  # evicts b
        assert "b" not in table
        assert "a" in table and "c" in table
        assert table.evictions == 1

    def test_poison_evicted_with_entry(self):
        table = CounterTable(ConfidenceConfig(), max_entries=1)
        table.learn("a")
        table.weaken("a")
        assert table.is_poisoned("a")
        table.learn("b")  # evicts a, clearing its poison
        table.learn("a")
        assert not table.is_poisoned("a")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CounterTable(ConfidenceConfig(), max_entries=0)

    def test_lookup_refreshes_a_capped_table(self):
        """A capped table is LRU over lookups too: finding a signature
        on an access keeps it, so the next insert evicts the other."""
        from tests.unit.test_ltp import bound, drive_trace

        ltp = bound(PerBlockLTP(entries_per_block=2))  # learn 2, fire 3
        drive_trace(ltp, 1, [0x10])  # learns A = 0x10
        drive_trace(ltp, 1, [0x24])  # learns B = 0x24
        # looks A up at the miss, then learns 0x14, evicting B (not A)
        drive_trace(ltp, 1, [0x10, 0x04])
        drive_trace(ltp, 1, [0x10])  # A confirmed again: confident
        assert drive_trace(ltp, 1, [0x10]) == 0

    def test_per_block_entry_cap_thrashes_multi_signature_blocks(self):
        """A block alternating between two traces needs two entries; a
        1-entry table forgets one each time."""
        from tests.unit.test_ltp import bound, drive_trace

        capped = bound(PerBlockLTP(confidence=FAST, entries_per_block=1))
        full = bound(PerBlockLTP(confidence=FAST))
        traces = [[0x10, 0x24], [0x38]]
        hits_capped = hits_full = 0
        for i in range(10):
            trace = traces[i % 2]
            if drive_trace(capped, 1, trace) is not None:
                hits_capped += 1
            if drive_trace(full, 1, trace) is not None:
                hits_full += 1
        assert hits_full > hits_capped


class TestConsumerPredictor:
    def test_learns_followers(self):
        pred = ConsumerPredictor()
        pred.observe_request(5, 0)
        pred.observe_request(5, 1)
        pred.observe_request(5, 0)
        assert pred.predict_consumer(5, 0) == 1
        assert pred.predict_consumer(5, 1) == 0

    def test_unknown_returns_none(self):
        pred = ConsumerPredictor()
        assert pred.predict_consumer(5, 0) is None
        pred.observe_request(5, 0)
        assert pred.predict_consumer(5, 0) is None

    def test_repeat_requests_ignored(self):
        pred = ConsumerPredictor()
        pred.observe_request(5, 0)
        pred.observe_request(5, 0)
        assert pred.predict_consumer(5, 0) is None

    def test_stats_usefulness(self):
        stats = ForwardingStats(forwards=10, useful=6, wasted=2)
        assert stats.usefulness == 0.75
        assert ForwardingStats().usefulness == 0.0


def _wide_producer_consumer(iterations=15, blocks=8):
    """Producer writes a batch of blocks; the consumer walks them in
    order, so self-invalidations of later blocks are applied while the
    consumer is still misses away — the window forwarding exploits.
    (With a single block the consumer's request is in flight before the
    SI is even serviced, and the engine correctly suppresses the
    redundant forward.)"""
    from repro.trace.program import Access, Barrier, Program, ProgramSet

    p0, p1 = Program(0), Program(1)
    bid = 0
    for _ in range(iterations):
        for b in range(blocks):
            p0.append(Access(0x100 + 4 * b, 0x1000 + 32 * b, True))
        bid += 1
        p0.append(Barrier(bid))
        p1.append(Barrier(bid))
        for b in range(blocks):
            p1.append(Access(0x200 + 4 * b, 0x1000 + 32 * b, False))
        bid += 1
        p0.append(Barrier(bid))
        p1.append(Barrier(bid))
    return ProgramSet("wide-pc", 2, {0: p0, 1: p1})


class TestForwardingTiming:
    def test_forwarding_turns_misses_into_hits(self):
        ps = _wide_producer_consumer()
        plain = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST)
        ).run(ps)
        fwd = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), forwarding=True
        ).run(ps)
        assert fwd.forwarding is not None
        assert fwd.forwarding.forwards > 0
        assert fwd.forwarding.useful > 0
        assert fwd.hits > plain.hits
        assert fwd.execution_cycles < plain.execution_cycles

    def test_redundant_forwards_suppressed_under_tight_race(self):
        """Single-block ping-pong: the consumer's request is always in
        flight before the SI applies; the engine must not push copies
        at nodes already fetching them."""
        ps = producer_consumer(iterations=10)
        rep = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), forwarding=True
        ).run(ps)
        assert rep.forwarding.forwards <= 2

    def test_forwarding_disabled_by_default(self):
        ps = producer_consumer(iterations=5)
        rep = TimingSimulator(lambda n: PerBlockLTP()).run(ps)
        assert rep.forwarding is None

    def test_forward_accounting_identity(self):
        ps = _wide_producer_consumer()
        rep = TimingSimulator(
            lambda n: PerBlockLTP(confidence=FAST), forwarding=True
        ).run(ps)
        f = rep.forwarding
        assert f.useful + f.wasted <= f.forwards


class TestTraceIO:
    def test_roundtrip(self):
        ps = producer_consumer(iterations=4)
        buf = io.StringIO()
        written = save_stream(interleave(ps), buf, ps.num_nodes)
        assert written > 0
        num_nodes, events = parse_stream(buf.getvalue())
        assert num_nodes == ps.num_nodes
        replayed = list(events)
        original = list(interleave(ps))
        assert len(replayed) == len(original)
        for a, b in zip(replayed, original):
            assert type(a) is type(b)
            assert a.node == b.node

    def test_replay_through_simulator_matches_live_run(self):
        ps = producer_consumer(iterations=10)
        buf = io.StringIO()
        save_stream(interleave(ps), buf, ps.num_nodes)
        num_nodes, events = parse_stream(buf.getvalue())
        live = AccuracySimulator(lambda n: PerBlockLTP()).run(ps)
        replay = AccuracySimulator(lambda n: PerBlockLTP()).run_stream(
            events, num_nodes, name="replay"
        )
        assert replay.predicted == live.predicted
        assert replay.not_predicted == live.not_predicted
        assert replay.mispredicted == live.mispredicted

    def test_file_roundtrip(self, tmp_path):
        ps = producer_consumer(iterations=3)
        path = tmp_path / "trace.txt"
        save_stream(interleave(ps), path, ps.num_nodes)
        num_nodes, events = load_stream(path)
        assert num_nodes == 2
        assert len(list(events)) > 0

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_stream("A 0 zz 100 R\n")
        with pytest.raises(ConfigurationError):
            parse_stream("X what\n")

    def test_comments_and_blanks_ignored(self):
        num_nodes, events = parse_stream(
            "#nodes 3\n\n# a comment\nA 2 10 40 W\n"
        )
        assert num_nodes == 3
        evs = list(events)
        assert len(evs) == 1 and evs[0].is_write

    def test_nodes_inferred_without_header(self):
        num_nodes, events = parse_stream("A 4 10 40 R\n")
        assert num_nodes == 5


class TestExport:
    def test_accuracy_rows_csv(self):
        from repro.analysis.export import (
            accuracy_rows,
            rows_to_csv,
            rows_to_json,
        )

        ps = producer_consumer(iterations=5)
        rep = AccuracySimulator(lambda n: PerBlockLTP()).run(ps)
        rows = accuracy_rows({"pc": {"ltp": rep}})
        assert rows[0]["workload"] == "pc"
        csv_text = rows_to_csv(rows)
        assert "predicted" in csv_text.splitlines()[0]
        import json

        parsed = json.loads(rows_to_json(rows))
        assert parsed[0]["policy"] == "ltp"

    def test_timing_rows_have_speedup(self):
        from repro.analysis.export import rows_to_csv, timing_rows

        ps = producer_consumer(iterations=5)
        base = TimingSimulator(lambda n: NullPolicy()).run(ps)
        ltp = TimingSimulator(lambda n: PerBlockLTP()).run(ps)
        rows = timing_rows({"pc": {"base": base, "ltp": ltp}})
        by_policy = {r["policy"]: r for r in rows}
        assert by_policy["base"]["speedup"] == 1.0
        assert rows_to_csv(rows)

    def test_export_result_dispatch(self):
        from repro.analysis.export import export_result
        from repro.experiments import figure6

        res = figure6.run(size="tiny", workloads=["em3d"])
        rows = export_result(res)
        assert any(r["policy"] == "ltp" for r in rows)

    def test_export_unsupported_raises(self):
        from repro.analysis.export import export_result

        with pytest.raises(TypeError):
            export_result(object())
