"""Pure helpers of the benchmark: statistics, digests, span and
registry arithmetic. No imports from the package under test, so the
self-tests run without it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: a percentile is reported only with at least this many samples
#: strictly beyond it
MIN_TAIL_SAMPLES = 10


# -- statistics ---------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer
    than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def tail_samples(n: int, q: float) -> int:
    """Samples strictly beyond the ``q`` quantile of ``n`` samples."""
    return n - math.ceil(q * n)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    n = len(values)
    if n == 0 or tail_samples(n, q) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * n) - 1)])


def histogram_percentile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """``q`` quantile of a fixed-bucket histogram, interpolated
    linearly inside the bucket it falls in (the Prometheus rule).

    ``counts`` are per bucket, non-cumulative, with one trailing
    ``+Inf`` bucket. Same tail rule as :func:`percentile`; a quantile
    landing in the ``+Inf`` bucket reports the last finite bound.
    """
    total = sum(counts)
    if total == 0 or tail_samples(total, q) < MIN_TAIL_SAMPLES:
        return None
    rank = q * total
    seen = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count and seen + count >= rank:
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
        lower = bound
    return float(bounds[-1])


# -- report canonicalisation -------------------------------------------

def canonical(value: Any) -> Any:
    """A JSON-ready rendering of a report that does not depend on the
    interpreter version: dataclasses become tagged dicts of their
    fields (in declaration order, including ``None`` fields), enums
    their names, mappings sorted ``[key, value]`` pairs, sets sorted
    lists, and floats their shortest round-trip ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = canonical(getattr(value, f.name))
        return out
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0]))
    if isinstance(value, (set, frozenset)):
        items = [canonical(v) for v in value]
        return sorted(items, key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def report_digest(report: Any) -> str:
    """Short sha256 of the canonical JSON of one report."""
    text = json.dumps(canonical(report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def spec_key(canonical_spec: str) -> str:
    """Short sha256 of a spec's canonical JSON identity."""
    return hashlib.sha256(canonical_spec.encode("utf-8")).hexdigest()[:16]


def compare_digests(
    expected: Dict[str, str], actual: Dict[str, str]
) -> List[str]:
    """Keys whose digest differs, or that only one side has."""
    keys = set(expected) | set(actual)
    return sorted(k for k in keys if expected.get(k) != actual.get(k))


# -- spans ---------------------------------------------------------------

def self_segments(spans: Sequence[Dict[str, Any]]) -> List[List]:
    """Per span: the sub-intervals of it that none of its direct
    children covers. Spans carry ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``; ids are unique within the list."""
    children: Dict[Any, List[Sequence[float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        segments, cursor = [], s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            if a > cursor:
                segments.append((cursor, min(a, s["end"])))
            cursor = max(cursor, b)
            if cursor >= s["end"]:
                break
        if s["end"] > cursor:
            segments.append((cursor, s["end"]))
        out.append(segments)
    return out


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Per span: its duration minus the part of it that its direct
    children cover."""
    return [sum(b - a for a, b in segments)
            for segments in self_segments(spans)]


def attribute(segments: Iterable[Sequence], lo: float, hi: float
              ) -> Dict[Any, float]:
    """Split the wall interval ``[lo, hi]`` among labelled segments
    ``(start, end, label)``: each instant goes in equal shares to the
    segments active at it (segments of parallel processes overlap), and
    instants with none active go to ``None``. The values add up to
    ``hi - lo``."""
    events = []
    for a, b, label in segments:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            events.append((a, 1, label))
            events.append((b, -1, label))
    events.sort(key=lambda e: (e[0], e[1]))
    out: Dict[Any, float] = {None: 0.0}
    active: Dict[Any, int] = {}
    cursor = lo
    for t, step, label in events + [(hi, 0, None)]:
        width = t - cursor
        if width > 0:
            total = sum(active.values())
            if total:
                for name, n in active.items():
                    out[name] = out.get(name, 0.0) + width * n / total
            else:
                out[None] += width
            cursor = t
        if step:
            active[label] = active.get(label, 0) + step
            if not active[label]:
                del active[label]
    return out


# -- telemetry registry snapshots -------------------------------------

def registry_delta(before: Dict[str, Any], after: Dict[str, Any]
                   ) -> Dict[str, Any]:
    """What happened between two ``MetricsRegistry.snapshot()``s.

    Counters and histogram buckets, sums and counts are differenced per
    series (a series new in ``after`` counts from zero); gauges keep
    their ``after`` value. Series with no change are dropped.
    """
    out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, series in after.get("counters", {}).items():
        old = before.get("counters", {}).get(name, {})
        diff = {k: v - old.get(k, 0) for k, v in series.items()}
        diff = {k: v for k, v in diff.items() if v}
        if diff:
            out["counters"][name] = diff
    out["gauges"] = {
        name: dict(series)
        for name, series in after.get("gauges", {}).items()
    }
    for name, series in after.get("histograms", {}).items():
        old_series = before.get("histograms", {}).get(name, {})
        diffs = {}
        for key, data in series.items():
            old = old_series.get(key)
            counts = list(data["counts"])
            total, count = data["sum"], data["count"]
            if old is not None:
                counts = [a - b for a, b in zip(counts, old["counts"])]
                total -= old["sum"]
                count -= old["count"]
            if count:
                diffs[key] = {
                    "buckets": list(data["buckets"]),
                    "counts": counts,
                    "sum": total,
                    "count": count,
                }
        if diffs:
            out["histograms"][name] = diffs
    return out


def merge_counters(deltas: Iterable[Dict[str, Any]]) -> Dict[str, Dict]:
    """Sum the counter series of several registry deltas."""
    out: Dict[str, Dict[str, float]] = {}
    for delta in deltas:
        for name, series in delta.get("counters", {}).items():
            into = out.setdefault(name, {})
            for key, value in series.items():
                into[key] = into.get(key, 0) + value
    return out


def label_sum(series: Dict[str, float], **labels: str) -> float:
    """Sum of the series whose canonical label key carries every
    ``name=value`` in ``labels``."""
    want = {f"{k}={v}" for k, v in labels.items()}
    return sum(
        value for key, value in series.items()
        if want <= set(key.split(",") if key else ())
    )
