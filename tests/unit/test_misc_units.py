"""Unit tests for small modules: errors, stats, directory entries,
the reference core's caches and directory, storage aggregation,
oracle, null policy, analysis helpers."""

import pytest

from repro.analysis.formatting import bar_segments, format_table
from repro.analysis.speedup import geomean
from repro.core.base import StorageReport
from repro.core.null import NullPolicy
from repro.core.oracle import OraclePolicy
from repro.core.storage import aggregate_reports, max_entries_per_block
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from repro.protocol.directory import DirectoryEntry
from repro.protocol.states import CacheState, DirState
from repro.sim.functional import compute_last_touch_ordinals
from repro.trace.scheduler import interleave
from repro.trace.stats import collect_stream_stats
from tests.conftest import producer_consumer
from tests.oracle.cache import NodeCaches
from tests.oracle.directory import Directory


class TestErrors:
    @pytest.mark.parametrize(
        "exc",
        [ConfigurationError, ProtocolError, SchedulingError,
         SimulationError, WorkloadError],
    )
    def test_hierarchy(self, exc):
        assert issubclass(exc, ReproError)


class TestNodeCaches:
    def test_install_lookup_evict(self):
        caches = NodeCaches(2)
        caches.install(0, 5, CacheState.SHARED)
        assert caches.lookup(0, 5) is CacheState.SHARED
        assert caches.lookup(1, 5) is None
        caches.evict(0, 5)
        assert caches.lookup(0, 5) is None

    def test_evict_absent_rejected(self):
        caches = NodeCaches(1)
        with pytest.raises(ProtocolError):
            caches.evict(0, 5)

    def test_footprint(self):
        caches = NodeCaches(1)
        caches.install(0, 1, CacheState.SHARED)
        caches.install(0, 2, CacheState.EXCLUSIVE)
        assert caches.footprint(0) == 2

    def test_zero_nodes_rejected(self):
        with pytest.raises(ProtocolError):
            NodeCaches(0)


class TestDirectoryEntryInvariants:
    def test_idle_with_owner_rejected(self):
        ent = DirectoryEntry(state=DirState.IDLE, owner=3)
        with pytest.raises(ProtocolError):
            ent.check_invariants()

    def test_shared_without_sharers_rejected(self):
        ent = DirectoryEntry(state=DirState.SHARED)
        with pytest.raises(ProtocolError):
            ent.check_invariants()

    def test_exclusive_with_sharers_rejected(self):
        ent = DirectoryEntry(
            state=DirState.EXCLUSIVE, owner=1, sharers={2}
        )
        with pytest.raises(ProtocolError):
            ent.check_invariants()

    def test_lazy_directory(self):
        d = Directory()
        assert len(d) == 0
        d.entry(7)
        assert len(d) == 1
        assert d.known_blocks() == {7}


class TestStreamStats:
    def test_counts_and_sharing(self):
        ps = producer_consumer(iterations=5, num_consumers=2)
        stats = collect_stream_stats(interleave(ps))
        assert stats.accesses == 5 * 3  # 1 write + 2 reads per iter
        assert stats.writes == 5
        assert stats.sharing_degree() == 3.0
        assert stats.actively_shared_blocks() == 1
        assert stats.sync_boundaries > 0
        assert 0 < stats.write_fraction < 1
        assert stats.reads == 10


class TestStorageAggregation:
    def test_aggregate_sums(self):
        reports = [
            StorageReport(13, 2, tracked_blocks=5, table_entries_total=10),
            StorageReport(13, 2, tracked_blocks=3, table_entries_total=2),
        ]
        agg = aggregate_reports(reports)
        assert agg.tracked_blocks == 8
        assert agg.entries_per_block == pytest.approx(1.5)

    def test_mixed_widths_rejected(self):
        reports = [
            StorageReport(13, 2, tracked_blocks=1, table_entries_total=1),
            StorageReport(30, 2, tracked_blocks=1, table_entries_total=1),
        ]
        with pytest.raises(ValueError):
            aggregate_reports(reports)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_reports([])

    def test_max_entries(self):
        reports = [
            StorageReport(13, 2, 2, 5, per_block_entries=[2, 3]),
            StorageReport(13, 2, 1, 7, per_block_entries=[7]),
        ]
        assert max_entries_per_block(reports) == 7

    def test_zero_blocks_zero_overhead(self):
        report = StorageReport(13, 2)
        assert report.entries_per_block == 0.0
        assert report.overhead_bytes_per_block == 0.0


class TestOracle:
    def test_ordinals_identify_last_touches(self):
        ps = producer_consumer(iterations=3)
        ordinals = compute_last_touch_ordinals(interleave(ps), 2)
        # every producer write is a last touch: the consumer's read
        # invalidates the writer's copy (migratory-favouring protocol)
        assert ordinals[0] == {0, 1, 2}
        # consumer reads 0 and 1 are invalidated by later writes; the
        # final read survives to the end of the run
        assert ordinals[1] == {0, 1}

    def test_policy_fires_at_ordinals(self):
        policy = OraclePolicy({1})
        assert not policy.on_access(9, 0x1, True, None, None).self_invalidate
        assert policy.on_access(9, 0x2, False, None, None).self_invalidate


class TestNullPolicy:
    def test_all_hooks_are_noops(self):
        p = NullPolicy()
        assert not p.on_access(1, 0x1, True, None, 0).self_invalidate
        p.on_invalidation(1)
        p.on_verified_correct(1)
        p.on_premature(1)
        from repro.trace.events import SyncKind

        assert p.on_sync(SyncKind.BARRIER, 1) == []
        assert p.storage_report().tracked_blocks == 0


class TestAnalysisHelpers:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "222"], ["33", "4"]])
        lines = out.splitlines()
        assert len({len(l) for l in lines[1:] if l}) >= 1
        assert "a" in lines[0] and "bb" in lines[0]

    def test_bar_segments_widths(self):
        bar = bar_segments(0.5, 0.5, 0.25, width=40)
        assert bar.count("#") == 20
        assert bar.count(".") == 20
        assert bar.count("!") == 10

    def test_bar_rounding_never_overflows_base(self):
        bar = bar_segments(0.66, 0.34, 0.0, width=10)
        assert bar.count("#") + bar.count(".") == 10

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
