"""Execution backends: one contract, three transports.

A backend is a strategy for turning the :class:`Runner`'s cache-miss
``JobSpec`` list into ``(spec, report)`` outcomes. The Runner owns
everything above the miss line — request dedup, the in-memory memo,
on-disk cache probes, stats and progress — and hands what is left to
exactly one :class:`ExecutionBackend`:

* :class:`InlineBackend` — run every spec in this process (``jobs=1``).
* :class:`PoolBackend` — fan out over a local ``multiprocessing`` pool.
* :class:`~repro.runner.remote.RemoteBackend` — serve the misses to
  ``repro worker`` processes over TCP, or — with
  ``attach=(host, port)`` — submit them to a live ``repro serve``
  broker (:mod:`repro.fleet`) and stream the results back instead of
  running a broker at all.

All three are asserted byte-identical and exactly-once by the backend
conformance suite (``tests/integration/test_backend_conformance.py``),
which is the contract a future job-queue backend must also meet.

A backend that publishes results into the runner's cache itself (the
remote broker publishes each report as it lands) sets
``publishes = True`` and the Runner skips its own ``cache.put``.
``publishes`` may be overridden per instance: an *attached*
RemoteBackend flips it off, because the serve broker publishes into
its own cache, not this runner's.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

import repro.runner.runner as _execution
import repro.telemetry as _tm
from repro.runner.spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.runner import Runner

#: what a backend yields per resolved spec: (spec, report)
Outcome = Tuple[JobSpec, Any]

#: miss batches handed to each backend, labeled by backend name —
#: with repro_runner_specs_executed_total this shows how work reached
#: execution (see docs/observability.md)
_M_BATCHES = _tm.counter("repro_runner_backend_batches_total")
_M_BATCH_SPECS = _tm.counter("repro_runner_backend_specs_total")


class ExecutionBackend:
    """Strategy interface for executing a batch of cache-miss specs.

    Attributes:
        name: short identifier (CLI ``--backend`` vocabulary).
        publishes: True when the backend writes results into the
            runner's cache itself; the Runner then skips its own put.
    """

    name = "abstract"
    publishes = False

    def run(
        self, specs: List[JobSpec], runner: "Runner"
    ) -> Iterable[Outcome]:
        raise NotImplementedError


def _trace_root(runner: "Runner") -> Optional[str]:
    return str(runner.trace_cache.root) if runner.trace_cache else None


def _grouped(specs: List[JobSpec]) -> List[JobSpec]:
    """Order jobs so specs sharing a ProgramSet sit together and each
    pool worker's per-process memo rebuilds as few workloads as
    possible."""
    return sorted(specs, key=lambda s: (s.workload, s.size, s.overrides))


@dataclass
class InlineBackend(ExecutionBackend):
    """Execute every spec in this process, no pool."""

    name = "inline"

    def run(self, specs, runner):
        previous = _execution._swap_trace_cache(
            runner.trace_cache or _execution._TRACE_CACHE
        )
        try:
            for spec in specs:
                yield spec, _execution.execute_spec(spec)
        finally:
            _execution._swap_trace_cache(previous)


@dataclass
class PoolBackend(ExecutionBackend):
    """Fan specs out over a local ``multiprocessing`` pool."""

    jobs: int = 2

    name = "pool"

    def run(self, specs, runner):
        if len(specs) == 1:
            # a pool for one job only adds spawn cost
            yield from InlineBackend().run(specs, runner)
            return
        ordered = _grouped(specs)
        chunksize = max(1, len(ordered) // (max(1, self.jobs) * 4))
        with multiprocessing.Pool(
            processes=min(self.jobs, len(ordered)),
            initializer=_execution._worker_init,
            initargs=(_trace_root(runner),),
        ) as pool:
            # ordered imap: results stream back as they finish but
            # pair up with their specs positionally
            yield from zip(
                ordered,
                pool.imap(
                    _execution.execute_spec, ordered, chunksize=chunksize
                ),
            )


def default_backend(jobs: int = 1) -> ExecutionBackend:
    """The backend a Runner's ``jobs`` count implies."""
    if jobs > 1:
        return PoolBackend(jobs=jobs)
    return InlineBackend()
