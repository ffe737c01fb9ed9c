"""One measured repetition, in a fresh process.

``setup`` mode imports the package and synthesises the workload's
traces into a fresh trace cache. ``cold`` mode resolves the workload's
grid into a fresh result cache (with the traced or untraced layer
wrappers), then resolves it again warm from that cache with fresh
Runners. Either writes one JSON record to ``--out``; ``run.py``
aggregates them.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: minimum warm passes per repetition
WARM_PASSES = 5


def _unique_traces(specs):
    return list(dict.fromkeys(
        (s.workload, s.size, s.overrides) for s in specs
    ))


def setup(args) -> dict:
    import repro.experiments  # noqa: F401  (set-up times every import
    import repro.runner  # noqa: F401          a measured pass needs)
    from repro.workloads import TraceCache, cached_build, get_workload

    import grid

    specs = grid.specs(args.workload, args.seed)
    cache = TraceCache(args.traces)
    built = time.perf_counter()
    events = 0
    for name, size, overrides in _unique_traces(specs):
        programs = cached_build(
            get_workload(name, size, **dict(overrides)), cache
        )
        events += programs.total_steps()
    done = time.perf_counter()
    return {
        "setup_s": done - _STARTED,
        "build_s": done - built,
        "trace_events": events,
    }


def _digests(results) -> dict:
    from benchlib import report_digest, spec_key

    return {
        spec_key(spec.canonical()): [spec.label(), report_digest(value)]
        for spec, value in results.items()
    }


def cold(args) -> dict:
    import repro.telemetry as tm
    from repro.runner import ResultCache, Runner
    from repro.workloads import TraceCache

    import grid
    import layers

    work = Path(args.work)
    cache_dir = work / "cache"
    worker_dir = work / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    recorder = layers.SpanRecorder() if args.trace else None
    layers.install(recorder, worker_dir)
    specs = grid.specs(args.workload, args.seed)
    unique = list(dict.fromkeys(specs))
    # as run-all does: spans land in telemetry/ beside the cache
    tm.configure(cache_dir / tm.TELEMETRY_DIRNAME)
    before = tm.registry().snapshot()

    started = time.perf_counter()
    runner = Runner(
        cache=ResultCache(cache_dir),
        trace_cache=TraceCache(args.traces),
        backend=grid.backend(args.workload),
    )
    error = None
    try:
        results = runner.run(specs)
    except Exception as exc:  # every spec then counts as failed
        results, error = {}, f"{type(exc).__name__}: {exc}"
    finished = time.perf_counter()
    wall = finished - started
    after = tm.registry().snapshot()
    cold_spans = list(recorder.spans) if recorder else []
    span_log = cache_dir / tm.TELEMETRY_DIRNAME
    program_spans = sum(1 for _ in tm.read_spans(span_log))

    warm = []
    warm_hits = 0
    warm_digests = {}
    warm_spans = []
    if error is None:
        if recorder is not None:
            recorder.reset()
        budget = time.perf_counter() + args.warm_seconds
        while len(warm) < WARM_PASSES or time.perf_counter() < budget:
            t0 = time.perf_counter()
            again = Runner(
                cache=ResultCache(cache_dir),
                trace_cache=TraceCache(args.traces),
                backend=grid.backend(args.workload),
            )
            replay = again.run(specs)
            warm.append(time.perf_counter() - t0)
            if len(warm) == 1:
                warm_hits = again.stats.cache_hits
                warm_digests = _digests(replay)
                warm_spans = list(recorder.spans) if recorder else []

    workers = [
        json.loads(p.read_text()) for p in sorted(worker_dir.glob("*.json"))
    ]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(
        w["rss_kb"] for w in workers
    )
    return {
        "error": error,
        "requested": len(specs),
        "unique": len(unique),
        "wall_s": wall,
        "cold_t0": started,
        "cold_t1": finished,
        "warm_s": warm,
        "warm_hits": warm_hits,
        "rss_kb": rss_kb,
        "digests": _digests(results),
        "warm_digests": warm_digests,
        "reports": _report_counts(results, args.workload, args.seed),
        "put_bytes": runner.cache.stats().total_bytes,
        "program_spans": program_spans,
        "registry_before": before,
        "registry_after": after,
        "workers": workers,
        "cold_spans": cold_spans,
        "warm_spans": warm_spans,
        "traces": len(_unique_traces(unique)),
    }


def _report_counts(results, workload, seed) -> dict:
    """Simulated totals over unique specs, plus the two paper cells."""
    from repro.analysis.accuracy import mean_fraction
    from repro.analysis.speedup import geomean
    from repro.sim.results import AccuracyReport
    from repro.timing.stats import TimingReport

    import grid
    from benchlib import spec_key

    out = {
        "accuracy_accesses": 0, "accesses": 0, "coherence_misses": 0, "self_invalidations": 0,
        "predicted": 0, "mispredicted": 0, "timing_accesses": 0,
        "sim_cycles": 0, "dir_messages": 0, "dir_queueing_cycles": 0,
        "si_timely": 0, "si_correct": 0, "bad": [],
    }
    for spec, rep in results.items():
        if spec.kind in ("accuracy", "oracle"):
            if not isinstance(rep, AccuracyReport) or rep.accesses <= 0:
                out["bad"].append(spec_key(spec.canonical()))
                continue
            out["accesses"] += rep.accesses
            out["coherence_misses"] += rep.coherence_misses
            if spec.kind == "accuracy":
                out["accuracy_accesses"] += rep.accesses
                out["self_invalidations"] += rep.self_invalidations
                out["predicted"] += rep.predicted
                out["mispredicted"] += rep.mispredicted
        elif spec.kind == "timing":
            if not isinstance(rep, TimingReport) or (
                rep.execution_cycles <= 0
            ):
                out["bad"].append(spec_key(spec.canonical()))
                continue
            out["timing_accesses"] += rep.accesses
            out["sim_cycles"] += rep.execution_cycles
            out["dir_messages"] += rep.directory.messages
            out["dir_queueing_cycles"] += rep.directory.queueing_cycles
            out["si_timely"] += rep.selfinval.timely_correct
            out["si_correct"] += rep.selfinval.correct
    fig6, fig9 = grid.paper_cells(workload, seed)
    out["ltp_predicted_frac"] = (
        mean_fraction(results[s] for s in fig6) if fig6 and results
        else 0.0
    )
    out["ltp_speedup_geomean"] = (
        geomean(results[ltp].speedup_over(results[base])
                for base, ltp in fig9) if fig9 and results else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "cold"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--traces", required=True)
    parser.add_argument("--work", default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--warm-seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = setup(args) if args.mode == "setup" else cold(args)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
