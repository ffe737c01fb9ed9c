"""Sqlite index over the content-addressed result cache.

The blob cache (:mod:`repro.runner.cache`) answers exactly one
question — "the bytes for this spec digest" — which makes *corpus*
questions ("all runs where workload=ocean and accuracy < 0.9")
require unpickling everything. :class:`ResultIndex` keeps a sqlite
database **beside** the blobs (``<cache-root>/index.sqlite``) with one
row per entry:

* the spec's identity columns (digest, kind, workload, size, policy,
  bits, encoder, variant, overrides, full canonical JSON, salt);
* storage accounting (codec, packed size, created/updated stamps, the
  publishing holder);
* scalar metrics extracted from the *in-memory* report at publish
  time (``metrics`` table, one ``(digest, name, value)`` row each) —
  so queries never touch the pickles, and an index row outlives a
  corrupted blob;
* experiment membership (``experiment_specs``), filled by matching
  digests against the experiment modules' declared grids (see
  :func:`repro.store.query.tag_experiments`).

Every publish path — the Runner's own ``cache.put`` and the remote
broker — funnels through :meth:`repro.runner.cache.ResultCache.put`,
which upserts the row here. Concurrent publishers are the normal
case (independent runners and brokers sharing one cache), so the
database
runs in WAL mode with a generous busy timeout, every write is an
idempotent ``INSERT .. ON CONFLICT`` keyed by digest, and each
operation opens its own short-lived connection (the broker publishes
from handler threads; sqlite connections are not thread-safe).
The index is advisory on the write path: a failure to record never
fails the publish — ``cache reindex`` rebuilds it from the blobs.
"""

from __future__ import annotations

import json
import math
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.runner.spec import JobSpec

#: database filename, in the cache root next to the blob shards
INDEX_DB_NAME = "index.sqlite"

#: bump on incompatible schema changes; mismatched databases are
#: dropped and rebuilt by ``cache reindex``
INDEX_SCHEMA = 1

#: seconds a writer waits on a locked database before giving up
BUSY_TIMEOUT = 30.0

#: attempts per write before the (advisory) operation is abandoned
WRITE_RETRIES = 5

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    digest TEXT PRIMARY KEY,
    kind TEXT,
    workload TEXT,
    size TEXT,
    policy TEXT,
    bits INTEGER,
    encoder TEXT,
    variant TEXT,
    forwarding INTEGER,
    si_fire_delay INTEGER,
    overrides TEXT,
    params TEXT,
    spec TEXT,
    salt TEXT,
    codec TEXT,
    size_bytes INTEGER,
    holder TEXT,
    created REAL,
    updated REAL
);
CREATE INDEX IF NOT EXISTS idx_results_workload
    ON results (workload);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
CREATE TABLE IF NOT EXISTS metrics (
    digest TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL,
    PRIMARY KEY (digest, name)
);
CREATE TABLE IF NOT EXISTS experiment_specs (
    digest TEXT NOT NULL,
    experiment TEXT NOT NULL,
    PRIMARY KEY (digest, experiment)
);
CREATE INDEX IF NOT EXISTS idx_experiment_specs_experiment
    ON experiment_specs (experiment);
CREATE TABLE IF NOT EXISTS campaigns (
    digest TEXT NOT NULL,
    campaign TEXT NOT NULL,
    PRIMARY KEY (digest, campaign)
);
CREATE INDEX IF NOT EXISTS idx_campaigns_campaign
    ON campaigns (campaign);
"""

#: queryable columns of the ``results`` table (the --where vocabulary
#: that is *not* a metric)
RESULT_COLUMNS = (
    "digest", "kind", "workload", "size", "policy", "bits", "encoder",
    "variant", "forwarding", "si_fire_delay", "salt", "codec",
    "size_bytes", "holder", "created", "updated",
)


def scalar_metrics(value: Any) -> Dict[str, float]:
    """Extract the indexable scalar metrics of one report object.

    Dispatches on the report types the runner produces (accuracy,
    timing, sharing census); anything unrecognized indexes with no
    metrics (the identity row still lands). ``accuracy`` is the
    canonical name for an accuracy run's predicted fraction — the
    metric the paper's figures rank policies by.
    """
    from repro.analysis.sharing import SharingCensus
    from repro.sim.results import AccuracyReport
    from repro.timing.stats import TimingReport

    if isinstance(value, AccuracyReport):
        return {
            "accuracy": value.predicted_fraction,
            "predicted_fraction": value.predicted_fraction,
            "not_predicted_fraction": value.not_predicted_fraction,
            "mispredicted_fraction": value.mispredicted_fraction,
            "invalidations": float(value.total_invalidations),
            "unresolved": float(value.unresolved),
            "accesses": float(value.accesses),
            "coherence_misses": float(value.coherence_misses),
            "self_invalidations": float(value.self_invalidations),
        }
    if isinstance(value, TimingReport):
        return {
            "execution_cycles": value.execution_cycles,
            "miss_rate": value.miss_rate,
            "mean_queueing": value.directory.mean_queueing,
            "mean_service": value.directory.mean_service,
            "si_fired": float(value.selfinval.fired),
            "si_timeliness": value.selfinval.timeliness,
            "external_invalidations": float(
                value.external_invalidations
            ),
            "accesses": float(value.accesses),
            "coherence_misses": float(value.coherence_misses),
        }
    if isinstance(value, SharingCensus):
        metrics = {"total_blocks": float(value.total_blocks)}
        for pattern, count in value.counts.items():
            name = getattr(pattern, "value", str(pattern))
            metrics[f"blocks_{name}"] = float(count)
            metrics[f"fraction_{name}"] = value.fraction(pattern)
        return metrics
    return {}


def finite_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """Drop non-finite metric values before they reach sqlite.

    Python's sqlite3 stores ``NaN`` as ``NULL``, which makes every
    comparison predicate on that metric silently false (the row
    vanishes from ``--where metric > x`` *and* ``metric <= x`` with
    no hint), and ``±inf`` round-trips but poisons JSON exports. The
    publish path skips such values — the identity row still lands,
    the metric is simply absent, which queries can at least observe.
    """
    return {
        name: value
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and math.isfinite(value)
    }


def _spec_columns(spec: JobSpec) -> Dict[str, Any]:
    """Flatten a JobSpec into the identity columns of one row."""
    return {
        "kind": spec.kind,
        "workload": spec.workload,
        "size": spec.size,
        "policy": spec.policy.name,
        "bits": spec.policy.bits,
        "encoder": spec.policy.encoder,
        "variant": spec.variant,
        "forwarding": int(spec.forwarding),
        "si_fire_delay": spec.si_fire_delay,
        "overrides": json.dumps(dict(spec.overrides), sort_keys=True),
        "params": json.dumps(
            {
                "confidence": dict(spec.policy.confidence),
                "entries_per_block": spec.policy.entries_per_block,
            },
            sort_keys=True,
        ),
        "spec": spec.canonical(),
    }


def _report_columns(value: Any) -> Dict[str, Any]:
    """Best-effort identity columns when only the report is available
    (reindexing an entry whose spec is not in any known grid): the
    report objects carry their workload and policy labels."""
    return {
        "workload": getattr(value, "workload", None),
        "policy": getattr(value, "policy", None),
    }


@dataclass(frozen=True)
class IndexStatus:
    """How the index relates to the blobs on disk."""

    #: rows in the database, or None when no database file exists
    rows: Optional[int]
    #: ``*.pkl`` entries on disk
    entries: int

    @property
    def missing(self) -> bool:
        return self.rows is None and self.entries > 0

    @property
    def stale(self) -> bool:
        return self.rows is not None and self.rows != self.entries


class ResultIndex:
    """The sqlite sidecar of one cache directory."""

    def __init__(self, root, db_name: str = INDEX_DB_NAME) -> None:
        self.root = Path(root)
        self.path = self.root / db_name

    # -- connections ---------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=BUSY_TIMEOUT)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_TABLES)
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema", str(INDEX_SCHEMA)),
        )
        return conn

    def exists(self) -> bool:
        return self.path.is_file()

    # -- writes --------------------------------------------------------

    def record(
        self,
        digest: str,
        value: Any,
        spec: Optional[JobSpec] = None,
        salt: Optional[str] = None,
        codec: Optional[str] = None,
        size_bytes: Optional[int] = None,
        holder: Optional[str] = None,
        created: Optional[float] = None,
        now: Optional[float] = None,
    ) -> None:
        """Idempotently upsert one entry's row and metrics.

        Safe under concurrent publishers: last writer wins per column,
        ``created`` is preserved from the first write. Retries through
        transient ``database is locked`` errors and, as a last resort,
        swallows them — the write path treats the index as advisory
        and ``cache reindex`` reconciles.
        """
        now = time.time() if now is None else now
        columns: Dict[str, Any] = {
            "digest": digest,
            "salt": salt,
            "codec": codec,
            "size_bytes": size_bytes,
            "holder": holder,
            "created": created if created is not None else now,
            "updated": now,
        }
        columns.update(
            _spec_columns(spec) if spec is not None
            else _report_columns(value)
        )
        metrics = finite_metrics(scalar_metrics(value))
        names = ", ".join(columns)
        slots = ", ".join("?" for _ in columns)
        updates = ", ".join(
            f"{name}=excluded.{name}"
            for name in columns
            if name not in ("digest", "created")
        )
        sql = (
            f"INSERT INTO results ({names}) VALUES ({slots}) "
            f"ON CONFLICT(digest) DO UPDATE SET {updates}"
        )
        for attempt in range(WRITE_RETRIES):
            try:
                with self._connect() as conn:
                    conn.execute(sql, tuple(columns.values()))
                    conn.executemany(
                        "INSERT INTO metrics (digest, name, value) "
                        "VALUES (?, ?, ?) ON CONFLICT(digest, name) "
                        "DO UPDATE SET value=excluded.value",
                        [(digest, k, v) for k, v in metrics.items()],
                    )
                return
            except sqlite3.OperationalError:
                if attempt == WRITE_RETRIES - 1:
                    return  # advisory: never fail the publish
                time.sleep(0.05 * (attempt + 1))
            finally:
                try:
                    conn.close()
                except UnboundLocalError:
                    pass

    def replace_experiments(
        self, mapping: Dict[str, Set[str]]
    ) -> int:
        """Replace the experiment-membership table for the digests
        present in the index; returns the number of tagged rows."""
        with self._connect() as conn:
            present = {
                row[0]
                for row in conn.execute("SELECT digest FROM results")
            }
            conn.execute("DELETE FROM experiment_specs")
            rows = [
                (digest, experiment)
                for digest, experiments in mapping.items()
                if digest in present
                for experiment in sorted(experiments)
            ]
            conn.executemany(
                "INSERT OR IGNORE INTO experiment_specs "
                "(digest, experiment) VALUES (?, ?)",
                rows,
            )
        conn.close()
        return len(rows)

    def tag_campaign(
        self, campaign: str, digests: Iterable[str]
    ) -> int:
        """Idempotently tag ``digests`` as discoveries of a campaign.

        Unlike experiment membership (recomputed wholesale from the
        declared grids), campaign tags are append-only facts — a
        retag never disturbs other campaigns' rows. Advisory like
        every index write: transient lock errors retry, then give up.
        """
        rows = [(digest, campaign) for digest in digests]
        if not rows:
            return 0
        for attempt in range(WRITE_RETRIES):
            try:
                with self._connect() as conn:
                    conn.executemany(
                        "INSERT OR IGNORE INTO campaigns "
                        "(digest, campaign) VALUES (?, ?)",
                        rows,
                    )
                return len(rows)
            except sqlite3.OperationalError:
                if attempt == WRITE_RETRIES - 1:
                    return 0
                time.sleep(0.05 * (attempt + 1))
            finally:
                try:
                    conn.close()
                except UnboundLocalError:
                    pass
        return 0

    def delete_missing(self, keep_digests: Iterable[str]) -> int:
        """Drop rows whose blobs vanished (pruned); returns count."""
        keep = set(keep_digests)
        with self._connect() as conn:
            stale = [
                row[0]
                for row in conn.execute("SELECT digest FROM results")
                if row[0] not in keep
            ]
            conn.executemany(
                "DELETE FROM results WHERE digest = ?",
                [(d,) for d in stale],
            )
            conn.executemany(
                "DELETE FROM metrics WHERE digest = ?",
                [(d,) for d in stale],
            )
            conn.executemany(
                "DELETE FROM experiment_specs WHERE digest = ?",
                [(d,) for d in stale],
            )
            conn.executemany(
                "DELETE FROM campaigns WHERE digest = ?",
                [(d,) for d in stale],
            )
        conn.close()
        return len(stale)

    # -- reads ---------------------------------------------------------

    def count(self) -> Optional[int]:
        """Row count, or ``None`` when no database file exists (the
        hint ``cache stats`` uses without creating one as a side
        effect)."""
        if not self.exists():
            return None
        with self._connect() as conn:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        conn.close()
        return count

    def status(self, entries: int) -> IndexStatus:
        return IndexStatus(rows=self.count(), entries=entries)

    def digests(self) -> Set[str]:
        if not self.exists():
            return set()
        with self._connect() as conn:
            digests = {
                row[0]
                for row in conn.execute("SELECT digest FROM results")
            }
        conn.close()
        return digests

    def distinct(self, column: str) -> List[Any]:
        if column not in RESULT_COLUMNS:
            raise ValueError(f"unknown column {column!r}")
        if not self.exists():
            return []
        with self._connect() as conn:
            values = [
                row[0]
                for row in conn.execute(
                    f"SELECT DISTINCT {column} FROM results "
                    f"WHERE {column} IS NOT NULL ORDER BY 1"
                )
            ]
        conn.close()
        return values

    def experiments(self) -> List[str]:
        """Experiment names with at least one tagged row."""
        if not self.exists():
            return []
        with self._connect() as conn:
            names = [
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT experiment FROM experiment_specs "
                    "ORDER BY 1"
                )
            ]
        conn.close()
        return names

    def campaigns(self) -> List[str]:
        """Campaign names with at least one tagged discovery."""
        if not self.exists():
            return []
        with self._connect() as conn:
            names = [
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT campaign FROM campaigns ORDER BY 1"
                )
            ]
        conn.close()
        return names

    def select(
        self,
        sql_where: str,
        params: Tuple,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run one filtered select; returns row dicts with a nested
        ``metrics`` mapping and an ``experiments`` list attached.
        ``sql_where``/``params`` come from
        :func:`repro.store.query.build_filter` — callers never splice
        user input into SQL themselves."""
        if not self.exists():
            return []
        query = (
            "SELECT r.* FROM results r"
            + (f" WHERE {sql_where}" if sql_where else "")
            + " ORDER BY r.kind, r.workload, r.policy, r.digest"
        )
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        with self._connect() as conn:
            conn.row_factory = sqlite3.Row
            rows = [dict(r) for r in conn.execute(query, params)]
            digests = [r["digest"] for r in rows]
            metrics: Dict[str, Dict[str, float]] = {
                d: {} for d in digests
            }
            experiments: Dict[str, List[str]] = {
                d: [] for d in digests
            }
            campaigns: Dict[str, List[str]] = {
                d: [] for d in digests
            }
            for chunk_start in range(0, len(digests), 500):
                chunk = digests[chunk_start:chunk_start + 500]
                slots = ",".join("?" for _ in chunk)
                for digest, name, value in conn.execute(
                    f"SELECT digest, name, value FROM metrics "
                    f"WHERE digest IN ({slots})",
                    chunk,
                ):
                    metrics[digest][name] = value
                for digest, experiment in conn.execute(
                    f"SELECT digest, experiment FROM experiment_specs "
                    f"WHERE digest IN ({slots}) ORDER BY experiment",
                    chunk,
                ):
                    experiments[digest].append(experiment)
                for digest, campaign in conn.execute(
                    f"SELECT digest, campaign FROM campaigns "
                    f"WHERE digest IN ({slots}) ORDER BY campaign",
                    chunk,
                ):
                    campaigns[digest].append(campaign)
        conn.close()
        for row in rows:
            row["metrics"] = metrics[row["digest"]]
            row["experiments"] = experiments[row["digest"]]
            row["campaigns"] = campaigns[row["digest"]]
        return rows
