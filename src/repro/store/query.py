"""Predicate language and output shaping for ``repro query``.

Filters compile to parameterized SQL over the :class:`ResultIndex`
tables; user input is never spliced into the statement. A ``--where``
clause is ``name OP literal`` where OP is one of ``< <= > >= = ==
!=`` and ``name`` is either a ``results`` column (``workload``,
``policy``, ``size``, ``holder``, ...) or a metric name
(``accuracy``, ``execution_cycles``, ...) — metrics resolve through
an EXISTS subquery against the ``metrics`` table, so the query never
touches the pickled blobs.

Experiment membership (``--experiment figure9`` or the CLI alias
``fig9``) filters through ``experiment_specs``, which ``cache
reindex`` fills by matching digests against every experiment module's
declared job grid (see :func:`tag_experiments`).
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.store.index import RESULT_COLUMNS, ResultIndex

_PREDICATE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|==|!=|<|>|=)\s*(.+?)\s*$"
)
_OPERATORS = {"<", "<=", ">", ">=", "=", "==", "!="}

#: identity columns that hold numbers. A numeric-literal predicate on
#: one of these compares under CAST so the index's column affinity can
#: never demote it to text ordering ("10" < "9") — the fresh schema
#: declares INTEGER affinity, but reindexed/legacy databases predate
#: those declarations and sqlite compares TEXT-stored values against
#: numeric parameters by type order, not value, unless we cast.
NUMERIC_COLUMNS = frozenset(
    ("bits", "si_fire_delay", "forwarding", "size_bytes",
     "created", "updated")
)


class QueryError(ValueError):
    """A malformed predicate or unknown filter vocabulary."""


@dataclass(frozen=True)
class Predicate:
    """One parsed ``--where`` clause."""

    name: str
    op: str
    value: Any

    @property
    def is_metric(self) -> bool:
        return self.name not in RESULT_COLUMNS


def parse_predicate(text: str) -> Predicate:
    """Parse ``"accuracy<0.9"`` / ``"policy=ltp"`` into a Predicate.

    Numeric-looking literals compare numerically; everything else
    compares as text (quotes around the literal are stripped).
    """
    match = _PREDICATE.match(text)
    if not match:
        raise QueryError(
            f"malformed predicate {text!r}; expected NAME OP VALUE "
            f"with OP in {sorted(_OPERATORS)}"
        )
    name, op, literal = match.groups()
    if op == "=":
        op = "=="
    literal = literal.strip()
    if (
        len(literal) >= 2
        and literal[0] == literal[-1]
        and literal[0] in "'\""
    ):
        value: Any = literal[1:-1]
    else:
        try:
            value = int(literal)
        except ValueError:
            try:
                value = float(literal)
            except ValueError:
                value = literal
    return Predicate(name=name, op=op, value=value)


def _sql_op(op: str) -> str:
    return {"==": "=", "!=": "<>"}.get(op, op)


_PY_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def predicate_matches(row: Dict[str, Any], pred: Predicate) -> bool:
    """Evaluate one predicate against a select()-shaped row dict.

    The Python twin of :func:`build_filter`, for callers that hold a
    row in hand instead of a database — campaign interestingness
    metrics score freshly published points this way. Semantics match
    SQL's: a missing column/metric never matches, and a numeric
    literal against a numeric-looking stored value compares
    numerically regardless of how the store spelled it.
    """
    if pred.is_metric:
        actual = row.get("metrics", {}).get(pred.name)
    else:
        actual = row.get(pred.name)
    if actual is None:
        return False
    expected = pred.value
    if isinstance(expected, (int, float)):
        try:
            actual = float(actual)
        except (TypeError, ValueError):
            return False
    else:
        actual = str(actual)
    try:
        return _PY_OPS[pred.op](actual, expected)
    except TypeError:
        return False


def build_filter(
    predicates: List[Predicate],
    experiment_names: Optional[List[str]] = None,
    campaign_names: Optional[List[str]] = None,
) -> Tuple[str, Tuple]:
    """Compile predicates + experiment/campaign membership into one
    ``(where_sql, params)`` pair for :meth:`ResultIndex.select`."""
    clauses: List[str] = []
    params: List[Any] = []
    for pred in predicates:
        op = _sql_op(pred.op)
        if pred.is_metric:
            clauses.append(
                "EXISTS (SELECT 1 FROM metrics m WHERE "
                f"m.digest = r.digest AND m.name = ? AND m.value {op} ?)"
            )
            params.extend([pred.name, pred.value])
        elif (
            pred.name in NUMERIC_COLUMNS
            and isinstance(pred.value, (int, float))
        ):
            clauses.append(
                f"CAST(r.{pred.name} AS NUMERIC) {op} ?"
            )
            params.append(pred.value)
        else:
            clauses.append(f"r.{pred.name} {op} ?")
            params.append(pred.value)
    if experiment_names:
        slots = ",".join("?" for _ in experiment_names)
        clauses.append(
            "EXISTS (SELECT 1 FROM experiment_specs e WHERE "
            f"e.digest = r.digest AND e.experiment IN ({slots}))"
        )
        params.extend(experiment_names)
    if campaign_names:
        slots = ",".join("?" for _ in campaign_names)
        clauses.append(
            "EXISTS (SELECT 1 FROM campaigns c WHERE "
            f"c.digest = r.digest AND c.campaign IN ({slots}))"
        )
        params.extend(campaign_names)
    return " AND ".join(clauses), tuple(params)


def run_query(
    index: ResultIndex,
    where: Optional[List[str]] = None,
    experiment: Optional[str] = None,
    campaign: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Parse, compile, and execute one query; returns row dicts."""
    predicates = [parse_predicate(text) for text in (where or [])]
    experiments: Optional[List[str]] = None
    if experiment:
        from repro.experiments import resolve_experiment

        try:
            canonical, _ = resolve_experiment(experiment)
        except KeyError as exc:
            raise QueryError(str(exc)) from None
        experiments = [canonical]
        # membership is computed from the declared grids, so rows
        # published since the last reindex can be tagged on the fly —
        # tagging only enumerates specs, it never runs simulations
        tag_experiments(index)
    campaigns: Optional[List[str]] = None
    if campaign:
        known = index.campaigns()
        if campaign not in known:
            raise QueryError(
                f"unknown campaign {campaign!r}; indexed campaigns: "
                f"{', '.join(known) or '(none)'}"
            )
        campaigns = [campaign]
    sql, params = build_filter(predicates, experiments, campaigns)
    return index.select(sql, params, limit=limit)


# -- experiment tagging ------------------------------------------------


def experiment_universe(salts: List[str]) -> Dict[str, Set[str]]:
    """digest -> {canonical experiment names} over every experiment
    module's declared job grid, for each salt seen in the index.

    Building the universe only *enumerates* specs (each module's
    ``jobs()`` is a cheap grid constructor — no simulation), so
    tagging a large cache is fast.
    """
    from repro.experiments import CANONICAL_EXPERIMENTS
    from repro.runner.cache import spec_digest

    mapping: Dict[str, Set[str]] = {}
    for name, module in CANONICAL_EXPERIMENTS.items():
        specs = _module_specs(module)
        for salt in salts:
            for spec in specs:
                digest = spec_digest(spec, salt)
                mapping.setdefault(digest, set()).add(name)
    return mapping


def _module_specs(module) -> List:
    """Every JobSpec a module's grid can request, across sizes."""
    from repro.workloads.base import SIZES

    specs = []
    for size in SIZES:
        try:
            jobs = module.jobs(size=size)
        except TypeError:
            jobs = module.jobs()
        except Exception:
            continue
        specs.extend(_flatten_specs(jobs))
    return specs


def _flatten_specs(jobs) -> List:
    from repro.runner.spec import JobSpec

    if isinstance(jobs, JobSpec):
        return [jobs]
    if isinstance(jobs, dict):
        jobs = jobs.values()
    flat: List = []
    for item in jobs:
        flat.extend(_flatten_specs(item))
    return flat


def tag_experiments(index: ResultIndex) -> int:
    """(Re)build the experiment-membership table from the digests in
    the index; returns the number of tagged rows."""
    salts = [s for s in index.distinct("salt") if s]
    if not salts:
        return 0
    return index.replace_experiments(experiment_universe(salts))


# -- reindex -----------------------------------------------------------


def reindex(cache, progress=None) -> Tuple[int, int]:
    """Rebuild the sqlite index from the blobs on disk.

    Walks every ``*.pkl`` entry, unpickles it once, and records a row
    — with full spec identity when the digest matches the experiment
    universe under the cache's salt, or best-effort report attributes
    otherwise (an old-salt or ad-hoc entry). Drops rows whose blobs
    vanished, then refreshes experiment tags. Returns
    ``(indexed, skipped)`` where *skipped* counts undecodable blobs.
    """
    import pickle

    from repro.runner.spec import JobSpec

    index = cache.index
    if index is None:
        raise QueryError("indexing disabled on this cache")
    from repro.experiments import CANONICAL_EXPERIMENTS
    from repro.runner.cache import spec_digest

    spec_by_digest: Dict[str, JobSpec] = {}
    for module in CANONICAL_EXPERIMENTS.values():
        for spec in _module_specs(module):
            spec_by_digest[spec_digest(spec, cache.salt)] = spec
    indexed = 0
    skipped = 0
    seen = []
    for path in cache.entry_paths():
        digest = path.stem
        try:
            stat = path.stat()
            with open(path, "rb") as handle:
                blob = handle.read()
            value = pickle.loads(blob)
        except Exception:
            skipped += 1
            continue
        index.record(
            digest,
            value,
            spec=spec_by_digest.get(digest),
            salt=cache.salt if digest in spec_by_digest else None,
            size_bytes=len(blob),
            created=stat.st_mtime,
        )
        seen.append(digest)
        indexed += 1
        if progress is not None:
            progress(indexed)
    index.delete_missing(seen)
    tag_experiments(index)
    return indexed, skipped


# -- output shaping ----------------------------------------------------

#: identity columns shown in the default table, in order
TABLE_COLUMNS = (
    "workload", "size", "policy", "kind", "holder",
)


def rows_to_records(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten select() rows into JSON/CSV-friendly records: identity
    columns, ``experiments`` joined, metrics inlined by name."""
    records = []
    for row in rows:
        record = {
            "digest": row["digest"],
            "experiments": ",".join(row["experiments"]),
        }
        if row.get("campaigns"):
            record["campaigns"] = ",".join(row["campaigns"])
        for name in TABLE_COLUMNS:
            record[name] = row.get(name)
        record["size_bytes"] = row.get("size_bytes")
        for name, value in sorted(row["metrics"].items()):
            record[name] = value
        records.append(record)
    return records


def _metric_columns(rows: List[Dict[str, Any]]) -> List[str]:
    names: Set[str] = set()
    for row in rows:
        names.update(row["metrics"])
    preferred = [
        "accuracy", "execution_cycles", "miss_rate", "si_timeliness",
    ]
    ordered = [n for n in preferred if n in names]
    ordered.extend(sorted(names - set(ordered)))
    return ordered


def format_rows_table(rows: List[Dict[str, Any]]) -> str:
    """ASCII table (same renderer the experiments print with)."""
    from repro.analysis.formatting import format_table

    metric_names = _metric_columns(rows)[:4]
    headers = ["digest", "experiments", *TABLE_COLUMNS, *metric_names]
    body = []
    for row in rows:
        cells = [
            row["digest"][:12],
            ",".join(row["experiments"]) or "-",
        ]
        for name in TABLE_COLUMNS:
            value = row.get(name)
            cells.append("-" if value is None else str(value))
        for name in metric_names:
            value = row["metrics"].get(name)
            cells.append("-" if value is None else f"{value:.6g}")
        body.append(cells)
    return format_table(headers, body, title=f"{len(rows)} result(s)")


def format_rows_csv(rows: List[Dict[str, Any]]) -> str:
    records = rows_to_records(rows)
    if not records:
        return ""
    fields: List[str] = []
    for record in records:
        for name in record:
            if name not in fields:
                fields.append(name)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields)
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue()


def format_rows_json(rows: List[Dict[str, Any]]) -> str:
    return json.dumps(rows_to_records(rows), indent=2, sort_keys=False)
