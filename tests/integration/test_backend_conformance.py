"""Cross-backend conformance suite.

Every execution backend — inline, multiprocessing pool, and remote
TCP — implements one contract (`ExecutionBackend.run(specs, runner)`),
and this suite pins it down with a single parametrized matrix: for
the same grid every backend must produce byte-identical reports,
execute each unique spec exactly once fleet-wide, write nothing into
the cache but results, the index and traces, and account identically
in ``RunnerStats`` (cold run all-executed, warm run all-cache-hits).
The matrix is additionally parametrized over the cache/wire codec
(``none``/``zlib``) — compression must be invisible to every one of
those properties. A future job-queue backend joins the matrix by
adding one factory.
"""

import hashlib
import pickle

import pytest

from repro.runner import (
    InlineBackend,
    PolicySpec,
    PoolBackend,
    RemoteBackend,
    ResultCache,
    Runner,
    accuracy_job,
    census_job,
    oracle_job,
    timing_job,
)

SIZE = "tiny"

BACKENDS = ("inline", "pool", "remote")

CODECS = ("none", "zlib")


def _grid():
    return [
        timing_job("em3d", SIZE, PolicySpec(name=p))
        for p in ("base", "dsi", "ltp")
    ] + [
        accuracy_job("em3d", SIZE, PolicySpec(name="ltp", bits=13)),
        oracle_job("em3d", SIZE),
        census_job("em3d", SIZE),
        census_job("tomcatv", SIZE),
    ]


def _digest(value) -> str:
    return hashlib.sha256(pickle.dumps(value)).hexdigest()


def _digests(results) -> dict:
    return {
        spec.canonical(): _digest(value)
        for spec, value in results.items()
    }


def _make_runner(kind: str, cache_dir, codec: str = "none") -> Runner:
    cache = ResultCache(cache_dir, codec=codec)
    if kind == "inline":
        return Runner(cache=cache, backend=InlineBackend())
    if kind == "pool":
        return Runner(cache=cache, backend=PoolBackend(jobs=2))
    # the acceptance-criteria configuration: a 2-worker remote run
    # over localhost (codec also compresses the wire report frames)
    return Runner(
        cache=cache,
        backend=RemoteBackend(
            workers=2, lease_ttl=20.0, poll=0.02, batch=2,
            timeout=240, codec=codec,
        ),
    )


@pytest.fixture(scope="module")
def serial_golden():
    """Fresh serial, uncached run of the grid — the byte-level oracle."""
    return _digests(Runner().run(_grid()))


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("kind", BACKENDS)
class TestBackendConformance:
    def test_cold_run_is_exactly_once_and_byte_identical(
        self, kind, codec, tmp_path, serial_golden
    ):
        grid = _grid()
        runner = _make_runner(kind, tmp_path, codec)
        results = runner.run(grid)

        # byte-identical to the serial oracle, whatever the transport
        assert _digests(results) == serial_golden

        # exactly-once execution, and the accounting says so
        assert runner.stats.executed == len(grid)
        assert runner.stats.cache_hits == 0

        # every backend leaves the cache fully populated...
        assert ResultCache(tmp_path).entries() == len(grid)
        # ...and writes no per-spec coordination files (no claim or
        # per-worker counter files, no claims directory at all)
        assert not (tmp_path / "claims").exists()
        assert list(tmp_path.rglob("*.claim")) == []
        assert list(tmp_path.rglob("*.done")) == []

    def test_warm_run_is_all_cache_hits(
        self, kind, codec, tmp_path, serial_golden
    ):
        grid = _grid()
        _make_runner(kind, tmp_path, codec).run(grid)
        second = _make_runner(kind, tmp_path, codec)
        results = second.run(grid)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(grid)
        assert second.stats.cache_fraction == 1.0
        assert _digests(results) == serial_golden

    def test_requested_duplicates_collapse(self, kind, codec, tmp_path):
        spec = census_job("em3d", SIZE)
        runner = _make_runner(kind, tmp_path, codec)
        results = runner.run([spec, spec, spec])
        assert results[spec].total_blocks > 0
        assert runner.stats.requested == 3
        assert runner.stats.dedup_hits == 2
        assert runner.stats.executed == 1


class TestRemoteFleetAccounting:
    def test_two_worker_fleet_executes_each_spec_once(
        self, tmp_path, serial_golden
    ):
        """The worker fleet — not just the runner — must execute each
        spec exactly once: no duplicate reports, no reassignments on a
        healthy run, and both workers participate in the protocol."""
        grid = _grid()
        backend = RemoteBackend(
            workers=2, lease_ttl=20.0, poll=0.02, timeout=240
        )
        runner = Runner(cache=ResultCache(tmp_path), backend=backend)
        results = runner.run(grid)
        assert _digests(results) == serial_golden
        stats = backend.broker.stats
        assert stats.specs == len(grid)
        assert stats.results == len(grid)
        assert stats.duplicates == 0
        assert backend.broker.table.reclaimed == 0
        assert len(stats.workers) == 2


class TestCodecTransparency:
    @pytest.mark.parametrize("cold,warm", [("none", "zlib"), ("zlib", "none")])
    def test_warm_run_reads_entries_written_under_other_codec(
        self, tmp_path, serial_golden, cold, warm
    ):
        """Switching --codec between runs must never invalidate the
        cache: reads decode whatever codec wrote the entry."""
        grid = _grid()
        _make_runner("inline", tmp_path, cold).run(grid)
        second = _make_runner("inline", tmp_path, warm)
        results = second.run(grid)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(grid)
        assert _digests(results) == serial_golden


class TestBackendSelection:
    def test_jobs_maps_to_backends(self):
        assert Runner().backend.name == "inline"
        assert Runner(jobs=4).backend.name == "pool"

    def test_self_publishing_flags(self):
        assert not InlineBackend().publishes
        assert not PoolBackend().publishes
        assert RemoteBackend().publishes
