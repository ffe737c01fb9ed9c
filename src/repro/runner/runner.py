"""Parallel, cached execution of :class:`~repro.runner.spec.JobSpec`s.

:func:`execute_spec` is the single entry point that turns a spec into a
report — it is a module-level function so a ``multiprocessing`` pool
(or a remote worker process) can ship specs by pickle. Each process
memoises built ``ProgramSet``s per ``(workload, size, overrides)``, so
a grid that sweeps policies over one workload builds the trace once
per process.

:class:`Runner` layers three result sources, in order:

1. an in-memory memo (shared across ``run()`` calls, which is how
   ``repro run-all`` deduplicates overlapping experiment grids);
2. the on-disk :class:`~repro.runner.cache.ResultCache`, if attached;
3. execution through exactly one :class:`ExecutionBackend` — inline,
   a local ``multiprocessing`` pool, or a TCP broker serving
   ``repro worker`` fleets (:mod:`repro.runner.backends`,
   :mod:`repro.runner.remote`).

The backend is picked explicitly (``Runner(backend=...)``) or derived
from ``jobs``. All three backends satisfy one contract, asserted by
the conformance suite: every unique spec executes exactly once
fleet-wide, and reports are byte-identical to a serial run — the
simulations are seeded and event ordering is total, so a spec's report
does not depend on where it ran.

Attaching a :class:`~repro.workloads.trace_cache.TraceCache` makes
:func:`_programs_for` deserialize persisted ``ProgramSet`` traces
instead of re-synthesizing them per process (pool and remote workers
install the cache at start-up).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.telemetry as _tm
from repro.analysis.sharing import census
from repro.errors import ConfigurationError
from repro.protocol.states import ProtocolVariant
from repro.runner.cache import ResultCache
from repro.runner.spec import NULL_POLICY, JobSpec
from repro.sim import AccuracySimulator
from repro.timing import TimingSimulator
from repro.trace.program import ProgramSet
from repro.trace.scheduler import interleave
from repro.workloads import TraceCache, cached_build, get_workload

#: per-process ProgramSet memo: (workload, size, overrides) -> ProgramSet
_PROGRAMS: Dict[Tuple, ProgramSet] = {}

#: per-process persistent trace cache consulted by :func:`_programs_for`
_TRACE_CACHE: Optional[TraceCache] = None

#: progress callback: (done, total, spec, source) with source one of
#: "memo" | "cache" | "run"
ProgressFn = Callable[[int, int, JobSpec, str], None]

# -- execution-layer instruments (see docs/observability.md) -----------
# "repro_runner_" prefixed series ride worker heartbeat frames to the
# broker, so a fleet scrape shows per-worker execution breakdowns.
_M_EXECUTED = _tm.counter("repro_runner_specs_executed_total")
_M_EXEC_SECONDS = _tm.histogram("repro_runner_execute_seconds")
_M_ENGINE_EVENTS = _tm.counter("repro_engine_events_total")
_M_SOURCES = _tm.counter("repro_runner_results_total")


def _swap_trace_cache(cache: Optional[TraceCache]) -> Optional[TraceCache]:
    """Install the process-wide trace cache, returning the previous."""
    global _TRACE_CACHE
    previous = _TRACE_CACHE
    _TRACE_CACHE = cache
    return previous


def _worker_init(trace_root: Optional[str]) -> None:
    """Pool-worker initializer: attach the shared trace cache."""
    if trace_root:
        _swap_trace_cache(TraceCache(trace_root))


def _programs_for(spec: JobSpec) -> ProgramSet:
    key = (spec.workload, spec.size, spec.overrides)
    programs = _PROGRAMS.get(key)
    if programs is None:
        workload = get_workload(
            spec.workload, spec.size, **dict(spec.overrides)
        )
        with _tm.span(
            "runner.build_trace", workload=spec.workload, size=spec.size
        ):
            programs = cached_build(workload, _TRACE_CACHE)
        _PROGRAMS[key] = programs
    return programs


def execute_spec(spec: JobSpec) -> Any:
    """Run one spec to completion and return its report object.

    Instrumented but identity-clean: the spans/counters emitted here
    never touch the spec, the report, or the cached bytes — its report
    is byte-identical to :func:`_execute_spec_inner`'s.
    """
    started = time.perf_counter()
    with _tm.span(
        "runner.execute",
        kind=spec.kind,
        workload=spec.workload,
        size=spec.size,
        policy=spec.policy.name,
    ):
        value = _execute_spec_inner(spec)
    _M_EXECUTED.inc(kind=spec.kind)
    _M_EXEC_SECONDS.observe(time.perf_counter() - started, kind=spec.kind)
    return value


def _execute_spec_inner(spec: JobSpec) -> Any:
    programs = _programs_for(spec)
    variant = ProtocolVariant[spec.variant.upper()]
    if spec.kind == "census":
        return census(interleave(programs))
    if spec.kind == "oracle":
        sim = AccuracySimulator(NULL_POLICY.build, variant=variant)
        return sim.run_oracle(programs)
    if spec.kind == "accuracy":
        sim = AccuracySimulator(spec.policy.build, variant=variant)
        return sim.run(programs)
    if spec.kind == "timing":
        engine = TimingSimulator(
            spec.policy.build,
            config=spec.config,
            variant=variant,
            forwarding=spec.forwarding,
            si_fire_delay=spec.si_fire_delay,
        )
        report = engine.run(programs)
        # fold the engine's per-kind dispatch counters into the
        # fleet-visible series
        for kind, count in engine.event_counts.items():
            if count:
                _M_ENGINE_EVENTS.inc(count, kind=kind)
        return report
    raise ConfigurationError(f"unknown job kind {spec.kind!r}")


@dataclass(frozen=True)
class RunnerStats:
    """A Runner's accounting when read: its specs by result source in
    ``repro_runner_results_total`` since the runner was made."""

    #: duplicates collapsed within a single run() call
    dedup_hits: int
    memo_hits: int
    cache_hits: int
    executed: int

    @property
    def served_without_execution(self) -> int:
        return self.dedup_hits + self.memo_hits + self.cache_hits

    @property
    def requested(self) -> int:
        return self.served_without_execution + self.executed

    @property
    def cache_fraction(self) -> float:
        """Fraction of requested jobs that needed no execution."""
        if not self.requested:
            return 0.0
        return self.served_without_execution / self.requested

    def summary(self) -> str:
        return (
            f"{self.requested} jobs requested: "
            f"{self.executed} executed, "
            f"{self.cache_hits} from disk cache, "
            f"{self.memo_hits} from memory, "
            f"{self.dedup_hits} duplicates collapsed "
            f"({self.cache_fraction:.0%} served without execution)"
        )


@dataclass
class Runner:
    """Executes job specs with dedup, caching and a pluggable backend.

    Attributes:
        jobs: worker process count; 1 runs inline (no pool).
        cache: on-disk result cache, or ``None`` to disable.
        progress: optional per-job callback (done, total, spec, source).
        trace_cache: persistent ``ProgramSet`` build cache; installed
            process-wide during execution (and in pool workers).
        backend: explicit :class:`ExecutionBackend`; when ``None`` one
            is derived from ``jobs``.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    progress: Optional[ProgressFn] = None
    trace_cache: Optional[TraceCache] = None
    backend: Optional[Any] = None
    _memo: Dict[JobSpec, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(
                f"jobs must be >= 1, got {self.jobs}"
            )
        if self.backend is None:
            # imported here: backends imports this module for
            # execute_spec and the trace-cache globals
            from repro.runner.backends import default_backend

            self.backend = default_backend(jobs=self.jobs)
        self._since = _tm.Baseline(_M_SOURCES)

    @property
    def stats(self) -> RunnerStats:
        """This runner's accounting so far (a frozen copy)."""
        count = self._since.count
        return RunnerStats(
            dedup_hits=count(_M_SOURCES, source="dedup"),
            memo_hits=count(_M_SOURCES, source="memo"),
            cache_hits=count(_M_SOURCES, source="cache"),
            executed=count(_M_SOURCES, source="run"),
        )

    def run(self, specs: Iterable[JobSpec]) -> Dict[JobSpec, Any]:
        """Resolve every spec, executing each unique one at most once.

        Returns a mapping that covers all requested specs (duplicates
        collapse onto the same entry).
        """
        requested = list(specs)
        unique = list(dict.fromkeys(requested))
        if len(requested) > len(unique):
            _M_SOURCES.inc(len(requested) - len(unique), source="dedup")
        total = len(unique)
        results: Dict[JobSpec, Any] = {}
        misses: List[JobSpec] = []
        done = 0
        for spec in unique:
            source = None
            if spec in self._memo:
                results[spec] = self._memo[spec]
                source = "memo"
            elif self.cache is not None:
                hit, value = self.cache.get(spec)
                if hit:
                    results[spec] = self._memo[spec] = value
                    source = "cache"
            if source is None:
                misses.append(spec)
            else:
                _M_SOURCES.inc(source=source)
                done += 1
                self._report(done, total, spec, source)
        for spec, value in self._resolve(misses):
            _M_SOURCES.inc(source="run")
            results[spec] = self._memo[spec] = value
            # a self-publishing backend (the remote broker) wrote the
            # cache entry already; either way every publish path lands
            # in the sqlite result index beside the blobs
            if self.cache is not None and not self.backend.publishes:
                self.cache.put(spec, value)
            done += 1
            self._report(done, total, spec, "run")
        return results

    def run_one(self, spec: JobSpec) -> Any:
        return self.run([spec])[spec]

    def _resolve(
        self, misses: List[JobSpec]
    ) -> Iterable[Tuple[JobSpec, Any]]:
        """Hand misses to the backend; yields ``(spec, value)``."""
        if not misses:
            return
        from repro.runner.backends import _M_BATCHES, _M_BATCH_SPECS

        name = getattr(self.backend, "name", "unknown")
        _M_BATCHES.inc(backend=name)
        _M_BATCH_SPECS.inc(len(misses), backend=name)
        yield from self.backend.run(misses, self)

    def _report(
        self, done: int, total: int, spec: JobSpec, source: str
    ) -> None:
        if self.progress is not None:
            self.progress(done, total, spec, source)
