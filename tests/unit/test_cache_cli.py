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

    @pytest.mark.parametrize("flag, value", [
        ("--max-bytes", "nan"),
        ("--max-bytes", "-1"),
        ("--max-bytes", "inf"),
        ("--max-age", "-5"),
        ("--max-age", "nan"),
        ("--max-age", "inf"),
        ("--max-age", "1e306d"),
    ])
    def test_prune_rejects_bad_retention_values(
        self, tmp_path, capsys, flag, value
    ):
        """A negative or non-finite bound is refused with exit 2
        before the sweep runs, instead of deleting every entry (or,
        for a NaN age, silently nothing)."""
        cache = ResultCache(tmp_path)
        _populate(cache, ("em3d", "tomcatv", "moldyn"))
        with pytest.raises(SystemExit) as exit_info:
            main([
                "cache", "prune", "--cache-dir", str(tmp_path),
                flag, value,
            ])
        assert exit_info.value.code == 2
        assert "invalid" in capsys.readouterr().err
        assert cache.entries() == 3

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

    def test_orphaned_traces_are_counted_apart_and_always_pruned(
        self, tmp_path, capsys
    ):
        """Entries of an older schema in the unversioned layout are
        neither live entries nor live bytes, and `cache prune` removes
        them with no limit given."""
        import hashlib

        from repro.workloads import (
            WORKLOAD_NAMES,
            TraceCache,
            cached_build,
            get_workload,
        )

        traces = TraceCache(tmp_path / "traces")
        for name in WORKLOAD_NAMES:
            workload = get_workload(name, SIZE)
            cached_build(workload, traces)
            old_key = hashlib.sha256(
                f"repro-trace/1/{workload.fingerprint()}".encode("utf-8")
            ).hexdigest()
            old_path = traces.root / old_key[:2] / f"{old_key}.pkl"
            old_path.parent.mkdir(exist_ok=True)
            old_path.write_bytes(traces.path(workload).read_bytes())
        live_bytes = traces.total_bytes()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "traces   9 entries" in out
        assert "9 orphaned" in out
        assert traces.orphan_bytes() == live_bytes
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert "9 orphaned traces" in capsys.readouterr().out
        assert traces.entries() == 9
        assert list(traces.orphan_paths()) == []
        assert traces.total_bytes() == live_bytes

    def test_trace_cache_equal_to_cache_dir_refused(self, tmp_path):
        """Result entries would read as orphaned traces, which prune
        deletes unconditionally."""
        cache = ResultCache(tmp_path)
        _populate(cache)
        for command in ("stats", "prune"):
            with pytest.raises(SystemExit, match="--trace-cache"):
                main([
                    "cache", command, "--cache-dir", str(tmp_path),
                    "--trace-cache", str(tmp_path),
                ])
        assert cache.entries() == 2


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

    @pytest.mark.parametrize("argv", [
        ["run-all", "--backend", "remote", "--ship-traces"],
        ["serve", "--ship-traces"],
        ["worker", "--connect", "127.0.0.1:1", "--no-fetch-traces"],
    ], ids=["run-all", "serve", "worker"])
    def test_removed_trace_shipping_flags_exit_2(self, capsys, argv):
        """Traces never cross the wire, so the shipping flags are
        gone and argparse refuses them before anything starts."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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


class TestStatsFleetStatus:
    """`cache stats` reads the serve pool's fleet.json mirror."""

    def test_stats_cli_shows_fleet_status_file(self, tmp_path, capsys):
        import json as json_mod

        from repro.fleet import FLEET_STATUS_NAME

        claims = tmp_path / "claims"
        claims.mkdir(parents=True)
        (claims / FLEET_STATUS_NAME).write_text(json_mod.dumps({
            "updated": time.time(),
            "live": 2,
            "desired": 3,
            "halted": False,
        }))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 live / 3 desired workers" in out
        assert "HALTED" not in out
        assert "(stale)" not in out

    @pytest.mark.parametrize("halted, age, marks", [
        (True, 0.0, ["HALTED"]),
        (False, 120.0, ["(stale)"]),
        (True, 120.0, ["HALTED", "(stale)"]),
    ], ids=["halted", "stale", "halted-and-stale"])
    def test_stats_cli_flags_the_pool_state(
        self, tmp_path, capsys, halted, age, marks
    ):
        import json as json_mod

        from repro.fleet import FLEET_STATUS_NAME

        claims = tmp_path / "claims"
        claims.mkdir(parents=True)
        (claims / FLEET_STATUS_NAME).write_text(json_mod.dumps({
            "updated": time.time() - age,
            "live": 1,
            "desired": 2,
            "halted": halted,
        }))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if "desired workers" in line
        )
        assert "1 live / 2 desired workers" in line
        for mark in marks:
            assert mark in line

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
