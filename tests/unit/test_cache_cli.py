"""Tests for cache maintenance: ResultCache.stats()/prune_by(), the
`repro cache {stats,prune}` CLI, and the run-all trace cache flag
plumbing."""

import os
import time

import pytest

from repro.experiments.cli import (
    _parse_age,
    _parse_bytes,
    _runner_from_args,
    build_parser,
    main,
)
from repro.runner import (
    ResultCache,
    census_job,
    execute_spec,
)

SIZE = "tiny"


def _populate(cache, names=("em3d", "tomcatv")):
    specs = [census_job(name, SIZE) for name in names]
    for spec in specs:
        cache.put(spec, execute_spec(spec))
    return specs


class TestResultCacheStats:
    def test_empty(self, tmp_path):
        stats = ResultCache(tmp_path).stats()
        assert stats.entries == 0
        assert stats.total_bytes == 0
        assert stats.oldest_age == stats.newest_age == 0.0

    def test_counts_and_ages(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _populate(cache)
        old = time.time() - 7200
        os.utime(cache.path(specs[0]), (old, old))
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.oldest_age == pytest.approx(7200, abs=60)
        assert stats.newest_age < 60


class TestPruneBy:
    def test_max_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _populate(cache)
        old = time.time() - 7200
        os.utime(cache.path(specs[0]), (old, old))
        assert cache.prune_by(max_age=3600) == 1
        assert not cache.get(specs[0])[0]
        assert cache.get(specs[1])[0]

    def test_max_bytes_drops_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _populate(cache, ("em3d", "tomcatv", "moldyn"))
        now = time.time()
        for i, spec in enumerate(specs):
            stamp = now - (len(specs) - i) * 1000
            os.utime(cache.path(spec), (stamp, stamp))
        newest_size = cache.path(specs[-1]).stat().st_size
        removed = cache.prune_by(max_bytes=newest_size)
        assert removed == 2
        assert cache.get(specs[-1])[0], "newest entry must survive"

    def test_no_limits_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache)
        assert cache.prune_by() == 0
        assert cache.entries() == 2


class TestCacheCli:
    def test_stats_output(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _populate(cache)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "traces" in out
        assert "claims" not in out

    def test_prune_sweeps_by_age(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        specs = _populate(cache)
        old = time.time() - 7200
        os.utime(cache.path(specs[0]), (old, old))
        code = main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-age", "1h",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 cached files" in out
        assert cache.entries() == 1

    def test_prune_max_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        _populate(cache, ("em3d", "tomcatv", "moldyn"))
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-bytes", "0",
        ]) == 0
        assert cache.entries() == 0

    def test_prune_max_bytes_budget_spans_results_and_traces(
        self, tmp_path
    ):
        """--max-bytes bounds results + traces combined, not each."""
        from repro.workloads import TraceCache, cached_build, get_workload

        cache = ResultCache(tmp_path)
        _populate(cache)
        traces = TraceCache(tmp_path / "traces")
        cached_build(get_workload("em3d", SIZE), traces)
        total = (
            cache.stats().total_bytes + traces.total_bytes()
        )
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-bytes", str(total - 1),
        ]) == 0
        remaining = (
            ResultCache(tmp_path).stats().total_bytes
            + TraceCache(tmp_path / "traces").total_bytes()
        )
        assert remaining <= total - 1

    def test_stats_and_prune_honor_trace_cache_flag(
        self, tmp_path, capsys
    ):
        from repro.workloads import TraceCache, cached_build, get_workload

        custom = tmp_path / "elsewhere"
        cached_build(get_workload("em3d", SIZE), TraceCache(custom))
        assert main([
            "cache", "stats", "--cache-dir", str(tmp_path / "cache"),
            "--trace-cache", str(custom),
        ]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path / "cache"),
            "--max-age", "0s", "--trace-cache", str(custom),
        ]) == 0
        assert TraceCache(custom).entries() == 0


class TestParsers:
    def test_parse_age(self):
        assert _parse_age("90") == 90.0
        assert _parse_age("90s") == 90.0
        assert _parse_age("30m") == 1800.0
        assert _parse_age("36h") == 36 * 3600.0
        assert _parse_age("7d") == 7 * 86400.0

    def test_parse_bytes(self):
        assert _parse_bytes("1048576") == 1048576
        assert _parse_bytes("500K") == 500 * 1024
        assert _parse_bytes("500M") == 500 * 2**20
        assert _parse_bytes("2G") == 2 * 2**30
        assert _parse_bytes("2GiB") == 2 * 2**30


class TestRunAllFlags:
    def test_runner_from_args_defaults_trace_cache(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--cache-dir", str(tmp_path),
        ])
        runner = _runner_from_args(args)
        assert runner.cache is not None
        # run-all defaults the trace cache inside the result cache
        assert runner.trace_cache is not None
        assert runner.trace_cache.root == tmp_path / "traces"

    @pytest.mark.parametrize("flags", [
        ["run-all", "--cooperative"],
        ["run-all", "--claim-ttl", "5"],
        ["run-all", "--backend", "cooperative"],
        ["cache", "stats", "--claim-ttl", "5"],
    ])
    def test_claim_options_are_gone(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(flags)

    def test_no_cache_disables_defaulted_trace_cache(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--cache-dir", str(tmp_path), "--no-cache",
        ])
        runner = _runner_from_args(args)
        assert runner.cache is None and runner.trace_cache is None

    def test_explicit_trace_cache_survives_no_cache(self, tmp_path):
        # --no-cache disables only the *result* cache
        args = build_parser().parse_args([
            "run-all", "--cache-dir", str(tmp_path), "--no-cache",
            "--trace-cache", str(tmp_path / "t"),
        ])
        runner = _runner_from_args(args)
        assert runner.cache is None
        assert runner.trace_cache is not None
        assert runner.trace_cache.root == tmp_path / "t"

    def test_explicit_trace_cache_dir(self, tmp_path):
        args = build_parser().parse_args([
            "fig9", "--trace-cache", str(tmp_path / "t"),
        ])
        runner = _runner_from_args(args)
        assert runner.trace_cache is not None
        assert runner.trace_cache.root == tmp_path / "t"


class TestStatsWatch:
    def test_watch_refreshes_n_times(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _populate(cache)
        code = main([
            "cache", "stats", "--cache-dir", str(tmp_path),
            "--watch", "0.01", "--refreshes", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # one stats block (plus a timestamp header) per refresh
        assert out.count(f"cache {tmp_path}") == 3
        assert out.count("— ") >= 3
        assert out.count("2 entries") == 3

    def test_watch_defaults_off(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(f"cache {tmp_path}") == 1
        assert "— " not in out  # no timestamp header without --watch


class TestCacheMigrateCli:
    def test_migrate_reencodes_results_and_traces(
        self, tmp_path, capsys
    ):
        from repro.codecs import blob_codec
        from repro.workloads import TraceCache, cached_build, get_workload

        cache = ResultCache(tmp_path)
        specs = _populate(cache)
        traces = TraceCache(tmp_path / "traces")
        cached_build(get_workload("em3d", SIZE), traces)

        assert main([
            "cache", "migrate", "--cache-dir", str(tmp_path),
            "--codec", "zlib",
        ]) == 0
        out = capsys.readouterr().out
        assert "2/2 entries re-encoded to zlib" in out
        assert "1/1 entries re-encoded to zlib" in out
        for spec in specs:
            assert blob_codec(cache.path(spec).read_bytes()) == "zlib"
            hit, _ = ResultCache(tmp_path).get(spec)
            assert hit
        hit, _ = TraceCache(tmp_path / "traces").get(
            get_workload("em3d", SIZE)
        )
        assert hit

    def test_migrate_back_to_none_restores_legacy_bytes(self, tmp_path):
        import pickle

        from repro.codecs import blob_codec

        cache = ResultCache(tmp_path, codec="zlib")
        specs = _populate(cache)
        assert main([
            "cache", "migrate", "--cache-dir", str(tmp_path),
            "--codec", "none",
        ]) == 0
        for spec in specs:
            blob = cache.path(spec).read_bytes()
            assert blob_codec(blob) == "none"
            assert blob.startswith(b"\x80")  # raw pickle again
            hit, value = cache.get(spec)
            assert hit
            assert pickle.dumps(
                value, pickle.HIGHEST_PROTOCOL
            ) == blob


class TestCodecFlagPlumbing:
    def test_codec_flag_wires_both_caches(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--cache-dir", str(tmp_path), "--codec", "zlib",
        ])
        runner = _runner_from_args(args)
        assert runner.cache.codec.name == "zlib"
        assert runner.trace_cache.codec.name == "zlib"

    def test_codec_defaults_to_none(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--cache-dir", str(tmp_path),
        ])
        runner = _runner_from_args(args)
        assert runner.cache.codec.name == "none"
        assert runner.trace_cache.codec.name == "none"

    def test_experiment_commands_accept_codec(self, tmp_path):
        args = build_parser().parse_args([
            "fig9", "--cache-dir", str(tmp_path), "--codec", "zlib",
        ])
        assert _runner_from_args(args).cache.codec.name == "zlib"

    def test_ship_traces_flag_builds_shipping_backend(self, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--backend", "remote", "--ship-traces",
            "--codec", "zlib", "--cache-dir", str(tmp_path),
        ])
        backend = _runner_from_args(args).backend
        assert backend.name == "remote"
        assert backend.ship_traces is True
        assert backend.codec == "zlib"

    def test_ship_traces_requires_remote_backend(self, capsys):
        code = main(["run-all", "--ship-traces"])
        assert code == 2
        assert "--ship-traces requires" in capsys.readouterr().err

    def test_worker_fetch_traces_flag(self):
        args = build_parser().parse_args([
            "worker", "--connect", "127.0.0.1:1", "--no-fetch-traces",
        ])
        assert args.no_fetch_traces

    def test_worker_codec_flag_parses(self):
        args = build_parser().parse_args([
            "worker", "--connect", "127.0.0.1:1", "--codec", "zlib",
        ])
        assert args.codec == "zlib"


class TestCodecBreakdown:
    """`cache stats` per-entry codec census (count + bytes/codec)."""

    def test_codec_census_buckets_mixed_entries(self, tmp_path):
        from repro.codecs import codec_census

        raw = ResultCache(tmp_path, codec="none")
        packed = ResultCache(tmp_path, codec="zlib")
        raw.put(census_job("em3d", SIZE), {"x": 1})
        packed.put(census_job("tomcatv", SIZE), {"y": 2})
        census = codec_census(raw.entry_paths())
        assert set(census) == {"none", "zlib"}
        assert census["none"][0] == 1
        assert census["zlib"][0] == 1
        total = sum(size for _, size in census.values())
        assert total == sum(
            p.stat().st_size for p in raw.entry_paths()
        )

    def test_codec_census_flags_torn_headers(self, tmp_path):
        from repro.codecs import BLOB_MAGIC, codec_census

        path = tmp_path / "ab" / "torn.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(BLOB_MAGIC)  # magic with no codec name
        census = codec_census([path])
        assert census == {"corrupt": (1, len(BLOB_MAGIC))}

    def test_codec_census_empty(self, tmp_path):
        from repro.codecs import codec_census

        assert codec_census(ResultCache(tmp_path).entry_paths()) == {}

    def test_stats_cli_shows_codec_breakdown(self, tmp_path, capsys):
        from repro.workloads import TraceCache, get_workload

        cache = ResultCache(tmp_path, codec="zlib")
        _populate(cache, names=("em3d",))
        ResultCache(tmp_path, codec="none").put(
            census_job("tomcatv", SIZE), {"z": 3}
        )
        traces = TraceCache(tmp_path / "traces", codec="zlib")
        workload = get_workload("em3d", SIZE)
        traces.put(workload, workload.build())
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        results_line = next(
            line for line in out.splitlines() if "results" in line
        )
        assert "zlib: 1" in results_line
        assert "none: 1" in results_line
        traces_line = next(
            line for line in out.splitlines() if "traces" in line
        )
        assert "zlib: 1" in traces_line

    def test_stats_cli_shows_fleet_status_file(self, tmp_path, capsys):
        import json as json_mod

        from repro.fleet import FLEET_STATUS_NAME

        claims = tmp_path / "claims"
        claims.mkdir(parents=True)
        (claims / FLEET_STATUS_NAME).write_text(json_mod.dumps({
            "updated": time.time(),
            "live": 2,
            "desired": 3,
            "queue_depth": 9,
            "throughput": 12.0,
            "policy": "queue",
            "halted": False,
            "events": [{
                "when": time.time(), "action": "up", "live": 0,
                "desired": 2, "queue_depth": 9, "throughput": 0.0,
                "reason": "queue=9",
            }],
        }))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 live / 3 desired workers" in out
        assert "up" in out

    def test_stats_cli_ignores_corrupt_fleet_file(
        self, tmp_path, capsys
    ):
        from repro.fleet import FLEET_STATUS_NAME

        claims = tmp_path / "claims"
        claims.mkdir(parents=True)
        (claims / FLEET_STATUS_NAME).write_text("{not json")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "desired" not in capsys.readouterr().out

    def test_stats_cli_ignores_oddly_typed_fleet_file(
        self, tmp_path, capsys
    ):
        """Valid JSON with wrong-typed fields (torn write recovered
        by hand, foreign writer) must degrade silently, not crash
        the stats command."""
        import json as json_mod

        from repro.fleet import FLEET_STATUS_NAME

        claims = tmp_path / "claims"
        claims.mkdir(parents=True)
        path = claims / FLEET_STATUS_NAME
        path.write_text(json_mod.dumps({
            "live": 1, "desired": 2, "updated": None,
        }))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "desired" not in capsys.readouterr().out
        # events of the wrong shape are dropped, the summary survives
        path.write_text(json_mod.dumps({
            "live": 1, "desired": 2, "updated": time.time(),
            "events": {"oops": 1},
        }))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "1 live / 2 desired" in capsys.readouterr().out
