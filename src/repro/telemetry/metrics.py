"""The process-global metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process (module-level ``REGISTRY``,
reachable through :func:`registry`), holding named instruments:

* :class:`Counter` — monotonically increasing totals (``_total``
  names by convention);
* :class:`Gauge` — a value that goes both ways (queue depth, rtt);
* :class:`Histogram` — fixed-bucket latency/size distributions with
  cumulative Prometheus semantics.

Every instrument supports labels: ``LEASES.inc(3, worker="w-1")``
keeps one value per distinct label set, and the exposition layer
renders each as its own time series. Updates take a per-instrument
lock, so a scraper thread calling :meth:`MetricsRegistry.snapshot`
mid-hammer sees torn nothing: each sample it reads is a value some
update actually produced, and counters only ever grow.

Instruments always record, so the registry is the one store of every
count the system prints; stat objects such as ``Broker.stats`` read it
through a :class:`Baseline`.

Snapshots are plain JSON-serializable dicts (schema
``repro-metrics/1``) — the same shape travels inside worker heartbeat
frames so a broker can aggregate fleet-wide metrics, and feeds the
Prometheus renderer in :mod:`repro.telemetry.exposition`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: snapshot schema version (bump on incompatible shape changes)
METRICS_SCHEMA = "repro-metrics/1"

#: default histogram buckets: seconds, log-ish spacing from 1ms to 60s
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0,
)

def _label_key(labels: Dict[str, str]) -> str:
    """Canonical string key for one label set — JSON-safe, so it
    survives the heartbeat-frame round trip unchanged. Empty string
    for the unlabeled series."""
    if not labels:
        return ""
    return ",".join(
        f"{k}={labels[k]}" for k in sorted(labels)
    )


def parse_label_key(key: str) -> Dict[str, str]:
    """Inverse of the canonical label key (exposition side)."""
    if not key:
        return {}
    out = {}
    for part in key.split(","):
        name, _, value = part.partition("=")
        out[name] = value
    return out


class Counter:
    """A monotonically increasing total, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def collect(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)


class Baseline:
    """The counts of some counters since this object was made.

    A stat view holds one, made with the object it describes, so it
    reads that object's counts without storing a second copy:
    ``Baseline(RESULTS).count(RESULTS, outcome="first")`` is how many
    ``outcome="first"`` results this process recorded since.
    """

    def __init__(self, *counters: Counter) -> None:
        self._base = {counter: counter.collect() for counter in counters}

    def series(self, counter: Counter) -> Dict[str, int]:
        """Each label set's count since the baseline, where nonzero."""
        base = self._base[counter]
        deltas = {
            key: int(value - base.get(key, 0))
            for key, value in counter.collect().items()
        }
        return {key: n for key, n in deltas.items() if n}

    def count(self, counter: Counter, **labels: str) -> int:
        """The summed count of the series whose labels include
        ``labels`` (with none, of every series)."""
        wanted = labels.items()
        return sum(
            n for key, n in self.series(counter).items()
            if wanted <= parse_label_key(key).items()
        )


class Gauge:
    """A value that can go up and down, one per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, n: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def dec(self, n: float = 1, **labels: str) -> None:
        self.inc(-n, **labels)

    def remove(self, **labels: str) -> None:
        """Drop one label set's series (e.g. a departed worker)."""
        with self._lock:
            self._values.pop(_label_key(labels), None)

    def value(self, **labels: str) -> Optional[float]:
        with self._lock:
            return self._values.get(_label_key(labels))

    def collect(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)


class Histogram:
    """Fixed-bucket distribution with Prometheus cumulative semantics.

    ``buckets`` are upper bounds (``le``); an implicit ``+Inf`` bucket
    always exists. Per label set it keeps the non-cumulative per-bucket
    counts plus ``sum`` and ``count`` — the exposition layer cumulates.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError(
                f"histogram {name} buckets must be sorted and non-empty"
            )
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._lock = threading.Lock()
        #: label key -> [per-bucket counts..., +Inf count]
        self._counts: Dict[str, List[int]] = {}
        self._sums: Dict[str, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        idx = len(self.buckets)  # +Inf by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = (
                    [0] * (len(self.buckets) + 1)
                )
                self._sums[key] = 0.0
            counts[idx] += 1
            self._sums[key] += value

    def collect(self) -> Dict[str, dict]:
        with self._lock:
            return {
                key: {
                    "buckets": list(self.buckets),
                    "counts": list(counts),
                    "sum": self._sums[key],
                    "count": sum(counts),
                }
                for key, counts in self._counts.items()
            }


class MetricsRegistry:
    """Named instruments, get-or-create, one shared namespace.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (re-registration with a
    different kind is an error — names are the contract), so modules
    can declare their instruments at import time in any order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, cls, name: str, *args, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, *args, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{inst.kind}, not {cls.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._instruments.clear()

    def snapshot(
        self, prefixes: Optional[Iterable[str]] = None
    ) -> Dict[str, dict]:
        """A JSON-serializable point-in-time copy of every instrument.

        ``prefixes`` restricts the snapshot to metric names starting
        with any of the given strings — the worker heartbeat piggyback
        uses this to ship only worker-relevant series.
        """
        wanted = tuple(prefixes) if prefixes is not None else None
        counters: Dict[str, dict] = {}
        gauges: Dict[str, dict] = {}
        histograms: Dict[str, dict] = {}
        for inst in self.instruments():
            if wanted is not None and not str(inst.name).startswith(
                wanted
            ):
                continue
            data = inst.collect()
            if not data:
                continue
            if isinstance(inst, Counter):
                counters[inst.name] = data
            elif isinstance(inst, Gauge):
                gauges[inst.name] = data
            else:
                histograms[inst.name] = data
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


#: the process-global registry every instrument hangs off
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return REGISTRY


def counter(name: str, help: str = "") -> Counter:
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return REGISTRY.gauge(name, help)


def histogram(
    name: str,
    help: str = "",
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    return REGISTRY.histogram(name, help, buckets=buckets)
