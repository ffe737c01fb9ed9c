"""Tests for the sqlite result store: index writes on every publish,
the query predicate language, reindexing, and the `repro query` /
`cache reindex` / `cache stats` hint CLI surfaces."""

import json
import multiprocessing
import sqlite3
import sys
import threading
import time

import pytest

from repro.experiments import figure9
from repro.experiments.cli import main
from repro.runner import ResultCache, execute_spec
from repro.runner.cache import spec_digest
from repro.runner.spec import PolicySpec, accuracy_job, census_job
from repro.store import (
    INDEX_DB_NAME,
    QueryError,
    ResultIndex,
    parse_predicate,
    reindex,
    run_query,
    scalar_metrics,
)
from repro.store.query import (
    build_filter,
    format_rows_csv,
    format_rows_json,
    format_rows_table,
    rows_to_records,
)

SIZE = "tiny"


def _ltp_spec(workload="em3d"):
    return accuracy_job(workload, SIZE, PolicySpec(name="ltp"))


class TestIndexOnPut:
    def test_put_records_row_and_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        rows = cache.index.select("", ())
        assert len(rows) == 1
        row = rows[0]
        assert row["digest"] == cache.key(spec)
        assert row["workload"] == "em3d"
        assert row["policy"] == "ltp"
        assert row["kind"] == "accuracy"
        assert row["salt"] == cache.salt
        assert row["size_bytes"] > 0
        assert 0.0 <= row["metrics"]["accuracy"] <= 1.0

    def test_put_into_an_index_with_a_codec_column(self, tmp_path):
        """An index written by an earlier release keeps its ``codec``
        column (tables are created only if absent), and a new row
        leaves it NULL."""
        conn = sqlite3.connect(tmp_path / INDEX_DB_NAME)
        conn.execute(
            "CREATE TABLE results ("
            "digest TEXT PRIMARY KEY, kind TEXT, workload TEXT, "
            "size TEXT, policy TEXT, bits INTEGER, encoder TEXT, "
            "variant TEXT, forwarding INTEGER, si_fire_delay INTEGER, "
            "overrides TEXT, params TEXT, spec TEXT, salt TEXT, "
            "codec TEXT, size_bytes INTEGER, holder TEXT, "
            "created REAL, updated REAL)"
        )
        conn.commit()
        conn.close()
        cache = ResultCache(tmp_path)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        with cache.index._transaction() as raw:
            rows = list(raw.execute("SELECT digest, codec FROM results"))
        assert rows == [(cache.key(spec), None)]
        records = rows_to_records(cache.index.select("", ()))
        assert len(records) == 1 and "codec" not in records[0]

    def test_put_is_idempotent_per_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _ltp_spec()
        value = execute_spec(spec)
        cache.put(spec, value)
        first = cache.index.select("", ())[0]
        cache.put(spec, value, holder="worker-1")
        rows = cache.index.select("", ())
        assert len(rows) == 1
        assert rows[0]["holder"] == "worker-1"
        assert rows[0]["created"] == first["created"]

    def test_holder_recorded(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec), holder="hostx-42")
        assert cache.index.select("", ())[0]["holder"] == "hostx-42"

    def test_index_disabled(self, tmp_path):
        cache = ResultCache(tmp_path, index=False)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        assert cache.index is None
        assert not (tmp_path / INDEX_DB_NAME).exists()

    def test_index_failure_never_fails_publish(self, tmp_path):
        cache = ResultCache(tmp_path)
        # a directory where the db file should be makes every sqlite
        # connect fail; the publish must still land
        (tmp_path / INDEX_DB_NAME).mkdir(parents=True)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        assert cache.get(spec)[0]

    def test_count_without_db_is_none_and_creates_nothing(
        self, tmp_path
    ):
        index = ResultIndex(tmp_path)
        assert index.count() is None
        assert not index.path.exists()

    def test_census_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = census_job("em3d", SIZE)
        value = execute_spec(spec)
        cache.put(spec, value)
        metrics = cache.index.select("", ())[0]["metrics"]
        assert metrics["total_blocks"] > 0
        assert any(k.startswith("fraction_") for k in metrics)

    def test_scalar_metrics_unknown_type(self):
        assert scalar_metrics(object()) == {}


class TestPredicates:
    def test_parse_numeric(self):
        pred = parse_predicate("accuracy<0.9")
        assert (pred.name, pred.op, pred.value) == (
            "accuracy", "<", 0.9
        )
        assert pred.is_metric

    def test_parse_column_equality(self):
        pred = parse_predicate("policy = ltp")
        assert (pred.name, pred.op, pred.value) == (
            "policy", "==", "ltp"
        )
        assert not pred.is_metric

    def test_parse_quoted_literal(self):
        assert parse_predicate("workload='em3d'").value == "em3d"

    def test_parse_malformed(self):
        with pytest.raises(QueryError):
            parse_predicate("accuracy ~ 0.9")
        with pytest.raises(QueryError):
            parse_predicate("0.9 < accuracy < 1.0; DROP TABLE x")

    def test_build_filter_parameterizes_values(self):
        sql, params = build_filter(
            [parse_predicate("policy=ltp"),
             parse_predicate("accuracy>=0.5")]
        )
        assert "ltp" not in sql and "0.5" not in sql
        assert params == ("ltp", "accuracy", 0.5)


class TestQuery:
    def _seed(self, tmp_path, workloads=("em3d", "tomcatv")):
        cache = ResultCache(tmp_path)
        for spec in figure9.jobs(size=SIZE, workloads=workloads):
            cache.put(spec, execute_spec(spec))
        return cache

    def test_experiment_filter_accepts_alias_and_canonical(
        self, tmp_path
    ):
        cache = self._seed(tmp_path, workloads=("em3d",))
        for name in ("fig9", "figure9"):
            rows = run_query(cache.index, experiment=name)
            assert len(rows) == 3  # base/dsi/ltp for one workload
        with pytest.raises(QueryError):
            run_query(cache.index, experiment="nope")

    def test_metric_and_column_predicates_combine(self, tmp_path):
        cache = self._seed(tmp_path, workloads=("em3d",))
        rows = run_query(
            cache.index,
            where=["policy=ltp", "execution_cycles>0"],
            experiment="figure9",
        )
        assert [r["policy"] for r in rows] == ["ltp"]

    def test_query_answers_from_index_with_corrupt_blob(
        self, tmp_path
    ):
        """The acceptance criterion: corrupt a blob payload and the
        query still returns its row — nothing is unpickled."""
        cache = self._seed(tmp_path, workloads=("em3d",))
        specs = figure9.jobs(size=SIZE, workloads=("em3d",))
        victim = cache.path(specs[0])
        victim.write_bytes(b"\x00garbage, not a pickle\x00")
        rows = run_query(cache.index, experiment="figure9")
        assert len(rows) == 3
        assert cache.key(specs[0]) in {r["digest"] for r in rows}
        # and the blob really is unreadable
        assert cache.get(specs[0]) == (False, None)

    def test_output_formats(self, tmp_path):
        cache = self._seed(tmp_path, workloads=("em3d",))
        rows = run_query(cache.index, experiment="figure9")
        table = format_rows_table(rows)
        assert "em3d" in table and "ltp" in table
        csv_text = format_rows_csv(rows)
        assert csv_text.count("\n") == 4  # header + 3 rows
        records = json.loads(format_rows_json(rows))
        assert len(records) == 3
        assert {r["policy"] for r in records} == {
            "base", "dsi", "ltp"
        }

    def test_limit(self, tmp_path):
        cache = self._seed(tmp_path, workloads=("em3d",))
        assert len(run_query(cache.index, limit=2)) == 2


class TestReindex:
    def test_rebuild_from_blobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = figure9.jobs(size=SIZE, workloads=("em3d",))
        for spec in specs:
            cache.put(spec, execute_spec(spec))
        cache.index.path.unlink()
        cache._index = None
        indexed, skipped = reindex(cache)
        assert (indexed, skipped) == (3, 0)
        rows = run_query(cache.index, experiment="figure9")
        assert {r["digest"] for r in rows} == {
            cache.key(spec) for spec in specs
        }
        assert all(r["workload"] == "em3d" for r in rows)

    def test_unknown_digest_gets_report_attrs(self, tmp_path):
        cache = ResultCache(tmp_path, salt="old-salt")
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        fresh = ResultCache(tmp_path)  # current salt
        fresh.index.path.unlink()
        fresh._index = None
        indexed, skipped = reindex(fresh)
        assert (indexed, skipped) == (1, 0)
        row = fresh.index.select("", ())[0]
        # spec identity is unrecoverable, report attrs fill in
        assert row["workload"] == "em3d"
        assert row["policy"] == "ltp"
        assert row["kind"] is None

    def test_corrupt_blob_skipped(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        path = cache.path(spec)
        path.write_bytes(damage(path.read_bytes()))
        cache.index.path.unlink()
        cache._index = None
        assert reindex(cache) == (0, 1)

    def test_delete_missing_after_prune(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_ltp_spec(w) for w in ("em3d", "tomcatv")]
        for spec in specs:
            cache.put(spec, execute_spec(spec))
        cache.path(specs[0]).unlink()
        removed = cache.index.delete_missing(
            path.stem for path in cache.entry_paths()
        )
        assert removed == 1
        assert cache.index.digests() == {cache.key(specs[1])}


class TestStoreCli:
    def _seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        for spec in figure9.jobs(size=SIZE, workloads=("em3d",)):
            cache.put(spec, execute_spec(spec))
        return cache

    def test_query_cli_table(self, tmp_path, capsys):
        self._seed(tmp_path)
        rc = main([
            "query", "--cache-dir", str(tmp_path),
            "--experiment", "figure9",
            "--where", "execution_cycles>0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 result(s)" in out and "em3d" in out

    def test_query_cli_no_index(self, tmp_path, capsys):
        rc = main(["query", "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "cache reindex" in capsys.readouterr().err

    def test_query_cli_bad_predicate(self, tmp_path, capsys):
        self._seed(tmp_path)
        rc = main([
            "query", "--cache-dir", str(tmp_path),
            "--where", "accuracy ~ 1",
        ])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_reindex_cli(self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        cache.index.path.unlink()
        rc = main(["cache", "reindex", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "reindexed 3 entries" in capsys.readouterr().out
        assert ResultIndex(tmp_path).count() == 3

    def test_stats_hint_missing_index(self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        cache.index.path.unlink()
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "index    missing" in out
        assert "cache reindex" in out

    def test_stats_hint_stale_index(self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        spec = figure9.jobs(size=SIZE, workloads=("em3d",))[0]
        cache.path(spec).unlink()  # blob gone, row remains
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "(stale)" in out and "cache reindex" in out

    def test_stats_in_sync(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "in sync" in capsys.readouterr().out

    def test_prune_syncs_index(self, tmp_path):
        self._seed(tmp_path)
        rc = main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-age", "0s",
        ])
        assert rc == 0
        assert ResultIndex(tmp_path).count() == 0


def _record_in_child(index, digest):
    """Forked child: record into the parent's index; exit 1 unless
    the row reads back through a connection of the child's own."""
    inherited = index._conn
    index.record(digest, None)
    own = index._conn is not None and index._conn is not inherited
    sys.exit(0 if own and digest in index.digests() else 1)


class TestSharedConnection:
    def test_many_records_open_one_connection(self, tmp_path, monkeypatch):
        opened = []
        real_connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(args[0])
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        index = ResultIndex(tmp_path)
        for n in range(25):
            index.record(f"digest-{n}", None, holder="h")
        assert index.count() == 25
        assert opened == [str(index.path)]

    def test_forked_child_records_through_its_own_connection(
        self, tmp_path
    ):
        index = ResultIndex(tmp_path)
        index.record("parent-before", None)
        child = multiprocessing.get_context("fork").Process(
            target=_record_in_child, args=(index, "child")
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        # the parent's connection survived the child's exit
        index.record("parent-after", None)
        assert index.digests() == {
            "parent-before", "child", "parent-after"
        }
        check = sqlite3.connect(str(index.path))
        try:
            assert check.execute(
                "PRAGMA integrity_check"
            ).fetchall() == [("ok",)]
        finally:
            check.close()

    def test_threads_take_turns_on_the_connection(self, tmp_path):
        """A transaction that fails rolls back only its own write: a
        record() another thread makes meanwhile waits its turn instead
        of joining (and committing) the open transaction."""
        index = ResultIndex(tmp_path)
        index.record("seed", None)
        started = threading.Event()

        def record_other():
            started.set()
            index.record("other", None)

        other = threading.Thread(target=record_other)
        with pytest.raises(RuntimeError):
            with index._transaction() as conn:
                conn.execute("INSERT INTO results (digest) VALUES ('x')")
                other.start()
                assert started.wait(timeout=30)
                # room for an unserialized record() to slip in here
                time.sleep(0.2)
                raise RuntimeError("abort the transaction")
        other.join(timeout=30)
        assert not other.is_alive()
        assert index.digests() == {"seed", "other"}

    def test_select_leaves_the_connection_on_tuples(self, tmp_path):
        index = ResultIndex(tmp_path)
        index.record("digest-a", None, holder="h")
        assert [row["holder"] for row in index.select("", ())] == ["h"]
        count = index.count()
        assert isinstance(count, int) and count == 1
        digests = index.digests()
        assert digests == {"digest-a"}
        assert all(isinstance(d, str) for d in digests)
        with index._transaction() as conn:
            row = conn.execute("SELECT digest FROM results").fetchone()
        assert type(row) is tuple


class TestSpecDigest:
    def test_matches_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        spec = _ltp_spec()
        assert cache.key(spec) == spec_digest(spec, "s1")
        assert spec_digest(spec, "s1") != spec_digest(spec, "s2")

    def test_wal_mode(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _ltp_spec()
        cache.put(spec, execute_spec(spec))
        conn = sqlite3.connect(str(cache.index.path))
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        conn.close()
        assert mode == "wal"


class TestNonFiniteMetrics:
    """Publish-path regression: NaN/inf metric values must never
    reach sqlite (NaN stores as NULL, which makes *every* comparison
    predicate on that metric silently exclude the row)."""

    def _nan_report(self):
        from repro.timing.stats import TimingReport

        return TimingReport(
            workload="em3d",
            policy="ltp",
            execution_cycles=float("nan"),
        )

    def _inf_report(self):
        from repro.timing.stats import TimingReport

        return TimingReport(
            workload="em3d",
            policy="ltp",
            execution_cycles=float("inf"),
        )

    def test_finite_metrics_drops_nan_and_inf(self):
        from repro.store import finite_metrics

        metrics = {
            "ok": 1.5,
            "bad_nan": float("nan"),
            "bad_inf": float("inf"),
            "bad_ninf": float("-inf"),
            "zero": 0.0,
        }
        assert finite_metrics(metrics) == {"ok": 1.5, "zero": 0.0}

    def test_nan_metric_not_indexed(self, tmp_path):
        from repro.runner.spec import timing_job

        cache = ResultCache(tmp_path)
        spec = timing_job("em3d", SIZE, PolicySpec(name="ltp"))
        # failing-before: this row's execution_cycles landed as NULL,
        # so both `execution_cycles > 0` *and* `<= 0` excluded it
        cache.put(spec, self._nan_report())
        row = cache.index.select("", ())[0]
        assert "execution_cycles" not in row["metrics"]
        # the identity row still lands and stays queryable
        assert row["policy"] == "ltp"
        rows = run_query(cache.index, where=["policy == ltp"])
        assert len(rows) == 1

    def test_inf_metric_not_indexed(self, tmp_path):
        from repro.runner.spec import timing_job

        cache = ResultCache(tmp_path)
        spec = timing_job("em3d", SIZE, PolicySpec(name="ltp"))
        cache.put(spec, self._inf_report())
        row = cache.index.select("", ())[0]
        assert "execution_cycles" not in row["metrics"]

    def test_finite_metrics_survive_alongside_nan(self, tmp_path):
        from repro.timing.stats import TimingReport
        from repro.runner.spec import timing_job

        cache = ResultCache(tmp_path)
        spec = timing_job("em3d", SIZE, PolicySpec(name="ltp"))
        report = TimingReport(
            workload="em3d",
            policy="ltp",
            execution_cycles=float("nan"),
            accesses=100,
        )
        cache.put(spec, report)
        metrics = cache.index.select("", ())[0]["metrics"]
        assert metrics["accesses"] == 100.0
        assert "execution_cycles" not in metrics


class TestNumericAffinity:
    """Numeric predicates on identity columns must compare by value,
    never by text ordering ("10" < "9" under text affinity)."""

    def _delay_grid(self, tmp_path):
        from repro.runner.spec import timing_job

        cache = ResultCache(tmp_path)
        for delay in (5, 9, 10, 40):
            spec = timing_job(
                "em3d", SIZE, PolicySpec(name="ltp"),
                si_fire_delay=delay,
            )
            cache.put(spec, execute_spec(spec))
        return cache

    def test_one_and_two_digit_delays_compare_numerically(
        self, tmp_path
    ):
        cache = self._delay_grid(tmp_path)
        rows = run_query(cache.index, where=["si_fire_delay < 10"])
        assert sorted(r["si_fire_delay"] for r in rows) == [5, 9]
        rows = run_query(cache.index, where=["si_fire_delay >= 10"])
        assert sorted(r["si_fire_delay"] for r in rows) == [10, 40]

    def test_text_stored_values_still_compare_numerically(
        self, tmp_path
    ):
        # a legacy/foreign index may hold numbers in affinity-less
        # (effectively TEXT) columns, where sqlite compares a text
        # value against a numeric parameter by *type order*, not by
        # value — the CAST in build_filter keeps value ordering even
        # then. Simulate such a schema: pre-create `results` without
        # column affinity (CREATE TABLE IF NOT EXISTS leaves it be).
        db_path = tmp_path / INDEX_DB_NAME
        conn = sqlite3.connect(db_path)
        conn.execute(
            "CREATE TABLE results ("
            "digest PRIMARY KEY, kind, workload, size, policy, "
            "bits, encoder, variant, forwarding, si_fire_delay, "
            "overrides, params, salt, codec, size_bytes, holder, "
            "created, updated)"
        )
        for delay in ("5", "9", "10", "40"):
            conn.execute(
                "INSERT INTO results "
                "(digest, kind, workload, policy, si_fire_delay) "
                "VALUES (?, 'timing', 'em3d', 'ltp', ?)",
                (f"digest-{delay}", delay),
            )
        conn.commit()
        conn.close()
        index = ResultIndex(tmp_path)
        # text storage survived (no affinity coercion): the bug's
        # precondition holds in this database
        with index._transaction() as raw:
            stored = [
                row[0]
                for row in raw.execute(
                    "SELECT si_fire_delay FROM results"
                )
            ]
        assert all(isinstance(v, str) for v in stored)
        # failing-before: every text value compared greater than the
        # numeric parameter, so `< 10` matched nothing at all
        rows = run_query(index, where=["si_fire_delay < 10"])
        got = sorted(int(r["si_fire_delay"]) for r in rows)
        assert got == [5, 9]
        rows = run_query(index, where=["si_fire_delay >= 10"])
        got = sorted(int(r["si_fire_delay"]) for r in rows)
        assert got == [10, 40]

    def test_bits_numeric_predicate(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bits in (9, 13, 30):
            spec = accuracy_job(
                "em3d", SIZE, PolicySpec(name="ltp", bits=bits)
            )
            cache.put(spec, execute_spec(spec))
        rows = run_query(cache.index, where=["bits < 13"])
        assert [r["bits"] for r in rows] == [9]

    def test_python_predicate_matches_numeric_coercion(self):
        from repro.store import parse_predicate, predicate_matches

        row = {"si_fire_delay": "10", "metrics": {"accuracy": 0.25}}
        assert predicate_matches(
            row, parse_predicate("si_fire_delay >= 10")
        )
        assert not predicate_matches(
            row, parse_predicate("si_fire_delay < 9")
        )
        assert predicate_matches(
            row, parse_predicate("accuracy < 0.5")
        )
        # missing names never match, matching SQL semantics
        assert not predicate_matches(
            row, parse_predicate("nonexistent > 0")
        )
