"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload accuracy-sweep --seed 3 \\
        --seconds 30 --trace 0

Runs from the root of a source checkout. Each measured repetition is a
fresh process resolving the workload's grid cold into a fresh result
cache (see ``grid.py`` and ``rep.py``); set-up (imports plus trace
synthesis into a fresh trace cache) is timed separately, three times.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer split of the
traced one plus the tracing overhead. Human-readable lines come first;
the last line of standard output is the JSON result.

``--record`` regenerates the reference digests of one workload and
seed in ``reference.json`` and lists the specs whose numbers moved.
``--catalog`` prints the metric catalog as markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import catalog  # noqa: E402
from grid import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPS = 3
#: cold repetitions a run measures at least, whatever --seconds says
MIN_REPS = 2
#: warm passes after each cold repetition, pooled into warm_wall_s
WARM_SECONDS = 1.5
#: the whole run ends within this many seconds, or fails
RUN_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result printed)."""


def _seed_key(seed: Optional[int]) -> str:
    return "default" if seed is None else str(seed)


def _child(args: List[str], out: Path, deadline: float) -> dict:
    """Run one repetition in a fresh process (its own process group,
    so a timeout also stops the fleet workers it forked)."""
    env = dict(os.environ)
    for name in ("REPRO_TELEMETRY", "REPRO_TELEMETRY_DIR", "REPRO_ENGINE"):
        env.pop(name, None)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args, "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("repetition ran past the run's time limit")
    if proc.returncode != 0:
        raise BenchError(
            f"repetition failed (rc {proc.returncode}):\n{stderr}"
        )
    return json.loads(out.read_text())


class Bench:
    def __init__(self, workload: str, seed: Optional[int],
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.traces = work / "traces"
        self.deadline = time.monotonic() + RUN_TIMEOUT
        self.warm_seconds = WARM_SECONDS
        self._n = 0

    def _common(self) -> List[str]:
        args = ["--workload", self.workload]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args

    def setup(self, timed: int = SETUP_REPS) -> List[dict]:
        """``timed`` set-ups, each in a fresh process with a fresh trace
        cache; the last one's cache feeds every measured repetition."""
        records = []
        for i in range(timed):
            traces = self.work / f"setup-{i}"
            records.append(_child(
                ["setup", *self._common(), "--traces", str(traces)],
                self.work / f"setup-{i}.json", self.deadline,
            ))
            if i < timed - 1:
                shutil.rmtree(traces)
        traces.rename(self.traces)
        return records

    def cold(self, traced: bool) -> dict:
        self._n += 1
        rep = self.work / f"rep-{self._n}"
        record = _child(
            ["cold", *self._common(), "--traces", str(self.traces),
             "--work", str(rep), "--trace", str(int(traced)),
             "--warm-seconds", str(self.warm_seconds)],
            self.work / f"rep-{self._n}.json", self.deadline,
        )
        shutil.rmtree(rep)
        return record


# -- aggregation -------------------------------------------------------

def _reference(workload: str, seed: Optional[int]) -> Optional[Dict]:
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data.get(workload, {}).get(_seed_key(seed))


def _short(digests: Dict[str, list]) -> Dict[str, str]:
    """spec key -> report digest, at the width reference.json keeps."""
    return {k[:12]: v[1][:12] for k, v in digests.items()}


def check(reps: List[dict], workload: str, seed: Optional[int]):
    """(attempted, failed, lines) over every measured repetition."""
    lines = []
    attempted = failed = 0
    first = next((r for r in reps if r["error"] is None), None)
    expected = _reference(workload, seed)
    for rep in reps:
        attempted += rep["unique"]
        if rep["error"] is not None:
            failed += rep["unique"]
            lines.append(f"repetition raised: {rep['error']}")
            continue
        got = _short(rep["digests"])
        labels = {k[:12]: v[0] for k, v in rep["digests"].items()}
        warm = set(benchlib.compare_digests(got, _short(rep["warm_digests"])))
        rerun = set(benchlib.compare_digests(_short(first["digests"]), got))
        ref = set()
        if expected is not None:
            ref = set(benchlib.compare_digests(expected, got))
        bad = {k[:12] for k in rep["reports"]["bad"]}
        failed += len(warm | rerun | ref | bad)
        for what, keys in (("warm pass differs from cold", warm),
                           ("differs between repetitions", rerun),
                           ("differs from reference", ref),
                           ("implausible report", bad)):
            for key in sorted(keys)[:10]:
                lines.append(f"{what}: {labels.get(key, key)}")
    if expected is None:
        lines.append(
            f"reference digests: unchecked (none recorded for seed "
            f"{_seed_key(seed)})"
        )
    else:
        lines.append(
            f"reference digests: checked {len(expected)} specs per "
            f"repetition (seed {_seed_key(seed)})"
        )
    return attempted, failed, lines


def warm_wall(reps: List[dict]) -> float:
    """Lower decile of every repetition's warm passes: a pass lasts
    milliseconds, so a median follows whichever slow or fast phase the
    host happens to be in."""
    warm = [t for r in reps if r["error"] is None for t in r["warm_s"]]
    return benchlib.percentile(warm, 0.10) or benchlib.median(warm)


def end_to_end(setups: List[dict], reps: List[dict]) -> Dict[str, float]:
    ok = [r for r in reps if r["error"] is None]
    return {
        "wall_s": benchlib.median([r["wall_s"] for r in ok]),
        "accesses_per_s": benchlib.median([
            (r["reports"]["accesses"] + r["reports"]["timing_accesses"])
            / r["wall_s"] for r in ok
        ]),
        "setup_s": benchlib.median([s["setup_s"] for s in setups]),
        "peak_rss_mb": benchlib.median([r["rss_kb"] / 1024 for r in ok]),
    }


def context(reps: List[dict], attempted: int, failed: int
            ) -> Dict[str, Optional[float]]:
    counts = next(
        (r["reports"] for r in reps if r["error"] is None), None
    )
    return {
        "warm_wall_s": warm_wall(reps),
        "failed_frac": failed / attempted if attempted else 1.0,
        "ltp_predicted_frac": (counts or {}).get("ltp_predicted_frac")
        or None,
        "ltp_speedup_geomean": (counts or {}).get("ltp_speedup_geomean")
        or None,
    }


def _metric_of(span: dict) -> str:
    from layers import KERNEL_SPANS, LAYER_OF

    if span["name"] in KERNEL_SPANS:
        return f"runner.execute_s.{span['kind']}"
    return LAYER_OF[span["name"]]


def split_wall(rep: dict):
    """(share of the cold wall per partition metric, busy seconds per
    partition metric summed over processes). Inline, the two agree;
    in the fleet, worker spans overlap each other and the broker's
    publishing, so each instant is shared among the layers active at
    it and idle instants are coordination."""
    processes = [rep["cold_spans"]] + [w["spans"] for w in rep["workers"]]
    segments, busy = [], {}
    for spans in processes:
        for span, own in zip(spans, benchlib.self_segments(spans)):
            metric = _metric_of(span)
            busy[metric] = busy.get(metric, 0.0) + sum(b - a for a, b in own)
            segments += [(a, b, metric) for a, b in own]
    share = benchlib.attribute(segments, rep["cold_t0"], rep["cold_t1"])
    share["runner.coordination_s"] = share.pop(None)
    busy["runner.coordination_s"] = share["runner.coordination_s"]
    return (
        {name: share.get(name, 0.0) for name in catalog.WALL_PARTITION},
        {name: busy.get(name, 0.0) for name in catalog.WALL_PARTITION},
    )


def per_layer(setups: List[dict], rep: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    counts = rep["reports"]
    out, _ = split_wall(rep)
    all_spans = list(rep["cold_spans"])
    own_times = benchlib.self_times(rep["cold_spans"])
    for worker in rep["workers"]:
        all_spans += worker["spans"]
        own_times += benchlib.self_times(worker["spans"])
    interleaves = sum(1 for s in all_spans if s["name"] == "interleave")

    def self_time(name: str, kind: str) -> float:
        return sum(
            own for s, own in zip(all_spans, own_times)
            if s["name"] == name and s["kind"] == kind
        )

    accuracy_self = self_time("AccuracySimulator.run", "accuracy")
    timing_self = self_time("execute_spec", "timing")

    deltas = [benchlib.registry_delta(rep["registry_before"],
                                      rep["registry_after"])]
    deltas += [benchlib.registry_delta(w["registry_before"],
                                       w["registry_after"])
               for w in rep["workers"]]
    counters = benchlib.merge_counters(deltas)
    events = counters.get("repro_engine_events_total", {})
    broker = deltas[0]["counters"]
    polls = benchlib.label_sum(
        broker.get("repro_broker_frames_total", {}), type="lease"
    )
    granted = sum(broker.get("repro_broker_leases_total", {}).values())
    hist = deltas[0]["histograms"].get(
        "repro_broker_lease_to_publish_seconds", {}
    ).get("")
    accuracy_accesses = counts["accuracy_accesses"]

    out.update({
        "workloads.build_s": benchlib.median(
            [s["build_s"] for s in setups]),
        "workloads.trace_events": setups[0]["trace_events"],
        "trace.interleave_per_trace": interleaves / rep["traces"],
        "sim.ns_per_access": (
            accuracy_self / accuracy_accesses * 1e9
            if accuracy_accesses else 0.0),
        "timing.events": sum(events.values()),
        "timing.ns_per_event": (
            timing_self / sum(events.values()) * 1e9 if events else 0.0),
        "cache.put_bytes": rep["put_bytes"],
        "cache.get_s": sum(
            own for s, own in zip(rep["warm_spans"],
                                  benchlib.self_times(rep["warm_spans"]))
            if s["name"] == "ResultCache.get"
        ),
        "cache.hit_ratio": rep["warm_hits"] / rep["unique"],
        "remote.lease_polls": polls,
        "remote.specs_per_lease_poll": granted / polls if polls else 0.0,
        "remote.lease_to_publish_samples": hist["count"] if hist else 0,
        "remote.result_bytes": sum(
            broker.get("repro_broker_result_bytes_total", {}).values()),
        "telemetry.spans": rep["program_spans"],
        "protocol.accesses": counts["accesses"],
        "protocol.coherence_misses": counts["coherence_misses"],
        "core.self_invalidations": counts["self_invalidations"],
        "core.predicted": counts["predicted"],
        "core.mispredicted": counts["mispredicted"],
        "core.useful_ratio": (
            counts["predicted"] / counts["self_invalidations"]
            if counts["self_invalidations"] else 0.0),
        "core.ltp_predicted_frac": counts["ltp_predicted_frac"],
        "timing.sim_cycles": counts["sim_cycles"],
        "timing.dir_queueing_mean_cycles": (
            counts["dir_queueing_cycles"] / counts["dir_messages"]
            if counts["dir_messages"] else 0.0),
        "timing.si_timeliness_frac": (
            counts["si_timely"] / counts["si_correct"]
            if counts["si_correct"] else 0.0),
        "timing.ltp_speedup_geomean": counts["ltp_speedup_geomean"],
    })
    for kind in ("dir_arrive", "dir_dequeue", "dir_complete"):
        out[f"timing.events.{kind}"] = benchlib.label_sum(events, kind=kind)
    for q, name in ((0.5, "p50"), (0.95, "p95")):
        value = hist and benchlib.histogram_percentile(
            hist["buckets"], hist["counts"], q
        )
        out[f"remote.lease_to_publish_{name}_s"] = value or 0.0
    return out


# -- output ------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def _print_metrics(title: str, values: Dict[str, float], table) -> None:
    print(title)
    for name, value in values.items():
        meta = table[name]
        extra = ""
        if name in catalog.PAPER and value is not None:
            extra = (f"  (paper {catalog.PAPER[name]}; synthetic "
                     f"workloads, unvalidated model: no error figure)")
        print(f"  {name:<34} {_fmt(value):>14} {meta.unit:<6}{extra}")


def _print_partition(rep: dict) -> None:
    share, busy = split_wall(rep)
    wall = rep["wall_s"]
    print(f"traced cold pass, wall_s {wall:.4f} s, split by layer "
          f"(share of wall; self time summed over processes):")
    for name in catalog.WALL_PARTITION:
        print(f"  {name:<34} {share[name]:>9.4f} s {share[name] / wall:>6.1%}"
              f" {busy[name]:>9.4f} s")
    print(f"  {'sum':<34} {sum(share.values()):>9.4f} s")


def measure(bench: Bench, seconds: int, traced_run: bool):
    """Cold repetitions until the next would pass ``seconds``, and at
    least :data:`MIN_REPS`; a traced run alternates untraced and traced
    ones. Returns (untraced reps, traced reps)."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        want_traced = traced_run and len(traced) < len(plain)
        t0 = time.perf_counter()
        (traced if want_traced else plain).append(bench.cold(want_traced))
        longest = max(longest, time.perf_counter() - t0)
        enough = len(plain) + len(traced) >= MIN_REPS
        if enough and time.perf_counter() + longest > deadline:
            return plain, traced


def record(bench: Bench) -> int:
    bench.warm_seconds = 0.0
    bench.setup(timed=1)
    rep = bench.cold(False)
    if rep["error"] is not None or rep["reports"]["bad"]:
        raise BenchError(f"cannot record a failing run: {rep['error']}")
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = _seed_key(bench.seed)
    old = data.get(bench.workload, {}).get(key)
    new = _short(rep["digests"])
    labels = {k[:12]: v[0] for k, v in rep["digests"].items()}
    data.setdefault(bench.workload, {})[key] = dict(sorted(new.items()))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    if old is None:
        print(f"recorded {len(new)} digests for {bench.workload} seed {key}")
        return 0
    moved = benchlib.compare_digests(old, new)
    print(f"{bench.workload} seed {key}: {len(moved)} of {len(new)} specs "
          f"moved")
    for k in moved:
        print(f"  moved: {labels.get(k, k + ' (no longer in the grid)')}")
    return 0


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no package source under {ROOT / 'src' / 'repro'}; run from "
            f"the root of a source checkout"
        )
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.record:
            return record(bench)
        setups = bench.setup()
        plain, traced = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    reps = plain + traced
    if all(r["error"] is not None for r in plain):
        raise BenchError(f"every repetition raised: {plain[0]['error']}")
    attempted, failed, lines = check(reps, args.workload, args.seed)
    first = reps[0]
    print(f"[perfbench] {args.workload} seed {_seed_key(args.seed)}: "
          f"{first['requested']} specs requested, {first['unique']} unique, "
          f"{first['traces']} traces; {len(plain)} untraced and "
          f"{len(traced)} traced cold repetitions, "
          f"{sum(len(r['warm_s']) for r in reps)} warm passes")
    for line in lines:
        print(f"[perfbench] {line}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in plain)
    print(f"[perfbench] untraced cold wall_s per repetition: {walls}")
    e2e = end_to_end(setups, plain)
    _print_metrics("end-to-end (median over repetitions):", e2e,
                   catalog.END_TO_END)
    _print_metrics("context:", context(plain, attempted, failed),
                   catalog.CONTEXT)
    metrics = e2e
    table = catalog.END_TO_END
    if args.trace:
        layer_runs = [per_layer(setups, rep) for rep in traced]
        layers = {
            name: benchlib.median([run[name] for run in layer_runs])
            for name in layer_runs[0]
        }
        layers["runner.warm_wall_s"] = warm_wall(plain)
        traced_wall = benchlib.median([r["wall_s"] for r in traced])
        layers["bench.trace_overhead_frac"] = traced_wall / e2e["wall_s"] - 1
        _print_partition(traced[0])
        _print_metrics("per-layer (traced repetition):", layers,
                       catalog.PER_LAYER)
        metrics = {name: layers[name] for name in catalog.PER_LAYER}
        table = catalog.PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": table[name].unit}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload generator seed override (default: the built-in "
             "seed, which is exactly the paper grid)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--catalog", action="store_true")
    args = parser.parse_args(argv)
    if args.catalog:
        print(catalog.markdown())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
