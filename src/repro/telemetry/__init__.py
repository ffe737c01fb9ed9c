"""Unified telemetry: metrics registry, span tracing, exposition.

The observability layer the rest of the repo instruments against.
Stdlib-only and strictly out-of-band: nothing here touches spec
identity, cache keys, or result bytes. Instruments always record —
the registry is the one store of every count the system prints — and
spans land only where a sink directory is configured.

Four pieces:

* :mod:`repro.telemetry.metrics` — process-global registry of named
  counters / gauges / fixed-bucket histograms with label support, and
  the :class:`Baseline` the stat views read their counts through;
* :mod:`repro.telemetry.spans` — ``with span("broker.lease", ...)``
  timing blocks emitting schema-versioned JSONL, with trace ids that
  propagate over the wire so one spec's lease → execute → publish
  stitches across broker and worker processes;
* :mod:`repro.telemetry.sink` — the size-capped rotating JSONL writer
  behind spans;
* :mod:`repro.telemetry.exposition` / :mod:`repro.telemetry.server`
  — Prometheus text rendering and the ``/metrics`` + ``/healthz`` HTTP
  endpoint the serve broker exposes with ``--metrics-port``. The
  server is not re-exported here: only the process that binds it
  imports it, so no other process loads ``http.server``.

See docs/observability.md for the metric catalog and span schema.
"""

from repro.telemetry.exposition import CONTENT_TYPE, render_prometheus
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Baseline,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.telemetry.sink import (
    DEFAULT_BACKUPS,
    DEFAULT_MAX_BYTES,
    RotatingJsonlWriter,
    read_jsonl,
    rotated_segments,
)
from repro.telemetry.spans import (
    SPAN_SCHEMA,
    SPANS_NAME,
    bind_trace,
    configure,
    configured_dir,
    current_trace_id,
    new_trace_id,
    read_spans,
    shutdown,
    span,
)

#: telemetry directory name, created beside the result cache
TELEMETRY_DIRNAME = "telemetry"

__all__ = [
    "Baseline",
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_BACKUPS",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_BYTES",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "REGISTRY",
    "RotatingJsonlWriter",
    "SPANS_NAME",
    "SPAN_SCHEMA",
    "TELEMETRY_DIRNAME",
    "bind_trace",
    "configure",
    "configured_dir",
    "counter",
    "current_trace_id",
    "gauge",
    "histogram",
    "new_trace_id",
    "read_jsonl",
    "read_spans",
    "registry",
    "render_prometheus",
    "rotated_segments",
    "shutdown",
    "span",
]
