"""The queryable result store: sqlite index, query language, reports.

Three modules over one database (``<cache-root>/index.sqlite``):

``index``
    :class:`~repro.store.index.ResultIndex` — the sqlite sidecar
    every :meth:`ResultCache.put` records into (WAL mode, idempotent
    digest-keyed upserts, safe under concurrent runner and broker
    publishers), plus the scalar-metric extraction per report type.
``query``
    the ``repro query`` predicate language (compiled to parameterized
    SQL), experiment tagging against the declared job grids, and
    ``cache reindex`` (rebuild the index from blobs on disk).
``report``
    the ``repro report`` static HTML site generator — experiment
    tables + SVG figures, fleet scaling timelines, bench trends.
"""

from repro.store.index import (
    INDEX_DB_NAME,
    ResultIndex,
    finite_metrics,
    scalar_metrics,
)
from repro.store.query import (
    QueryError,
    parse_predicate,
    predicate_matches,
    reindex,
    run_query,
    tag_experiments,
)
from repro.store.report import generate_report
