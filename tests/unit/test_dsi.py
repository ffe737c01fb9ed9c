"""Unit tests for the DSI baseline (repro.dsi)."""

from repro.dsi.predictor import DSIPolicy
from repro.dsi.versioning import VersioningSelector
from repro.protocol.states import MissKind
from repro.trace.events import SyncKind
from tests.unit.test_ltp import bound


class TestVersioningSelector:
    def test_first_fetch_never_candidate(self):
        sel = VersioningSelector()
        assert not sel.observe_fetch(1, MissKind.READ_FETCH, 0)

    def test_read_refetch_same_version_not_candidate(self):
        sel = VersioningSelector()
        sel.observe_fetch(1, MissKind.READ_FETCH, 3)
        assert not sel.observe_fetch(1, MissKind.READ_FETCH, 3)

    def test_read_refetch_moved_version_is_candidate(self):
        sel = VersioningSelector()
        sel.observe_fetch(1, MissKind.READ_FETCH, 3)
        assert sel.observe_fetch(1, MissKind.READ_FETCH, 5)

    def test_write_fetch_tagged_pre_increment(self):
        """A producer's own write run moves the version past its tag,
        so its next fetch is a candidate — the em3d behaviour."""
        sel = VersioningSelector()
        sel.observe_fetch(1, MissKind.WRITE_FETCH, 3)  # tag = 3, dir -> 4
        assert sel.observe_fetch(1, MissKind.WRITE_FETCH, 4)

    def test_upgrade_never_candidate_and_tags_post_write(self):
        """The migratory exclusion: a read-modify-write owner is tagged
        with its own post-write version — the tomcatv behaviour."""
        sel = VersioningSelector()
        sel.observe_fetch(1, MissKind.READ_FETCH, 3)
        assert not sel.observe_fetch(1, MissKind.UPGRADE, 3)  # tag = 4
        # refetch after own write run only: version is 4 -> no mismatch
        assert not sel.observe_fetch(1, MissKind.READ_FETCH, 4)

    def test_none_version_ignored(self):
        sel = VersioningSelector()
        assert not sel.observe_fetch(1, MissKind.READ_FETCH, None)
        assert sel.known_blocks() == 0

    def test_candidates_counted(self):
        sel = VersioningSelector()
        sel.observe_fetch(1, MissKind.READ_FETCH, 0)
        sel.observe_fetch(1, MissKind.READ_FETCH, 2)
        assert sel.candidates_selected == 1


class TestDSIPolicy:
    def _fetch(self, dsi, block, kind, version):
        dsi.on_access(block, 0x10, True, kind, version)

    def test_no_per_access_firing(self):
        dsi = bound(DSIPolicy())
        assert not dsi.on_access(1, 0x10, True, MissKind.READ_FETCH, 0)

    def test_bulk_self_invalidation_at_barrier(self):
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)  # candidate
        burst = dsi.on_sync(SyncKind.BARRIER, 1)
        assert burst == [1]

    def test_candidates_cleared_after_burst(self):
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)
        dsi.on_sync(SyncKind.BARRIER, 1)
        assert dsi.on_sync(SyncKind.BARRIER, 2) == []

    def test_lock_release_triggers(self):
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)
        assert dsi.on_sync(SyncKind.LOCK_RELEASE, 9) == [1]

    def test_lock_acquire_not_a_trigger_by_default(self):
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)
        assert dsi.on_sync(SyncKind.LOCK_ACQUIRE, 9) == []

    def test_upgrade_revokes_candidacy(self):
        """Taking a candidate block exclusive (spin-lock test&set, RMW
        data) removes it from the burst."""
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)  # candidate
        self._fetch(dsi, 1, MissKind.UPGRADE, 2)
        assert dsi.on_sync(SyncKind.BARRIER, 1) == []

    def test_external_invalidation_revokes_candidacy(self):
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)
        dsi.on_invalidation(1)
        assert dsi.on_sync(SyncKind.BARRIER, 1) == []

    def test_burst_is_sorted_and_counted(self):
        dsi = bound(DSIPolicy())
        for block in (9, 3, 7):
            self._fetch(dsi, block, MissKind.READ_FETCH, 0)
            self._fetch(dsi, block, MissKind.READ_FETCH, 2)
        burst = dsi.on_sync(SyncKind.BARRIER, 1)
        assert burst == [3, 7, 9]
        assert dsi.bulk_invalidations == 3

    def test_burst_follows_block_numbers_not_ids(self):
        """Ids are assigned in first-touch order; a burst still leaves
        in ascending block-number order, as the timing engine sends it."""
        dsi = DSIPolicy()
        dsi.bind([0x90, 0x30, 0x70])
        for bid in (0, 1, 2):
            self._fetch(dsi, bid, MissKind.READ_FETCH, 0)
            self._fetch(dsi, bid, MissKind.READ_FETCH, 2)
        assert dsi.on_sync(SyncKind.BARRIER, 1) == [1, 2, 0]

    def test_no_feedback_adaptation(self):
        """DSI is a heuristic: premature feedback does not stop it from
        re-selecting the block (the paper's 14% misprediction rate)."""
        dsi = bound(DSIPolicy())
        self._fetch(dsi, 1, MissKind.READ_FETCH, 0)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 2)
        dsi.on_sync(SyncKind.BARRIER, 1)
        dsi.on_premature(1)
        self._fetch(dsi, 1, MissKind.READ_FETCH, 4)
        assert dsi.on_sync(SyncKind.BARRIER, 2) == [1]
