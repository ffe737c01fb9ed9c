"""Every metric the benchmark reports: unit, layer, better direction,
and the end-to-end metric and workload it should move.

Host time unless a name carries ``cycles`` or ``frac`` of a simulated
quantity; "simulated" in ``moves`` marks the modelled counts, which
must repeat exactly and which no performance change may move.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Metric(NamedTuple):
    unit: str
    layer: str
    better: str
    moves: str


ACC, TIM, FLEET = "accuracy-sweep", "timing-sweep", "fleet-publish"

#: end-to-end metrics written to the JSON result of an untraced run
END_TO_END: Dict[str, Metric] = {
    "wall_s": Metric("s", "end-to-end", "lower",
                     "seconds to resolve the grid cold; all workloads"),
    "accesses_per_s": Metric(
        "1/s", "end-to-end", "higher",
        "simulated accesses summed from the reports per second of "
        "wall_s; all workloads"),
    "setup_s": Metric(
        "s", "end-to-end", "lower",
        "imports plus synthesis of the workload's traces into a fresh "
        "trace cache, median of 3; all workloads"),
    "peak_rss_mb": Metric(
        "MB", "end-to-end", "lower",
        "peak RSS of the measuring process plus each fleet worker's; "
        "all workloads"),
}

#: end-to-end figures printed beside the JSON metrics (not gated: they
#: are 0 on a correct run, or simulated, or absent on some workloads,
#: or, for warm_wall_s, a few milliseconds that follow the host's speed)
CONTEXT: Dict[str, Metric] = {
    "warm_wall_s": Metric(
        "s", "end-to-end", "lower",
        "seconds per warm pass resolving the grid from the cache with "
        "a fresh Runner, lower decile of 1.5 s of passes after each "
        "cold repetition; all workloads (JSON: runner.warm_wall_s)"),
    "failed_frac": Metric(
        "frac", "end-to-end", "lower",
        "specs that raised or whose digest differs, per spec attempted"),
    "ltp_predicted_frac": Metric(
        "frac", "end-to-end", "higher",
        f"simulated Figure 6 LTP average (paper: 0.79); {ACC}, {FLEET}"),
    "ltp_speedup_geomean": Metric(
        "x", "end-to-end", "higher",
        f"simulated Figure 9 LTP speedup over base (paper: about 1.11); "
        f"{TIM}, {FLEET}"),
}

#: paper values printed beside the two simulated figures
PAPER = {"ltp_predicted_frac": 0.79, "ltp_speedup_geomean": 1.11}

#: per-layer metrics written to the JSON result of a traced run
PER_LAYER: Dict[str, Metric] = {
    "workloads.build_s": Metric(
        "s", "workloads", "lower", "setup_s; all workloads"),
    "workloads.trace_events": Metric(
        "count", "workloads", "lower", "setup_s; all workloads"),
    "workloads.trace_load_s": Metric(
        "s", "workloads", "lower", f"wall_s on {FLEET}"),
    "trace.interleave_s": Metric(
        "s", "trace", "lower",
        f"wall_s and accesses_per_s on {ACC}; about 0 on {TIM}"),
    "trace.interleave_per_trace": Metric(
        "count", "trace", "lower",
        f"wall_s and accesses_per_s on {ACC}; 0 on {TIM}"),
    "runner.execute_s.accuracy": Metric(
        "s", "runner", "lower", f"wall_s on {ACC}"),
    "runner.execute_s.timing": Metric(
        "s", "runner", "lower", f"wall_s on {TIM}"),
    "runner.execute_s.oracle": Metric(
        "s", "runner", "lower", f"wall_s on {FLEET}"),
    "runner.execute_s.census": Metric(
        "s", "runner", "lower", f"wall_s on {FLEET}"),
    "sim.ns_per_access": Metric(
        "ns", "sim", "lower", f"wall_s on {ACC}"),
    "timing.events": Metric(
        "count", "timing", "lower", f"wall_s on {TIM} (simulated)"),
    "timing.events.dir_arrive": Metric(
        "count", "timing", "lower", f"wall_s on {TIM} (simulated)"),
    "timing.events.dir_dequeue": Metric(
        "count", "timing", "lower", f"wall_s on {TIM} (simulated)"),
    "timing.events.dir_complete": Metric(
        "count", "timing", "lower", f"wall_s on {TIM} (simulated)"),
    "timing.ns_per_event": Metric(
        "ns", "timing", "lower", f"wall_s on {TIM}"),
    "cache.probe_s": Metric(
        "s", "cache", "lower",
        f"wall_s on {FLEET}; under 5% of it elsewhere"),
    "cache.put_s": Metric(
        "s", "cache", "lower",
        f"wall_s on {FLEET}; under 5% of it elsewhere"),
    "index.record_s": Metric(
        "s", "store", "lower",
        f"wall_s on {FLEET}; under 5% of it elsewhere"),
    "cache.put_bytes": Metric(
        "bytes", "cache", "lower", f"wall_s on {FLEET}"),
    "runner.coordination_s": Metric(
        "s", "runner", "lower",
        f"wall_s on {FLEET}; under 5% of it elsewhere"),
    "runner.warm_wall_s": Metric(
        "s", "runner", "lower", "the warm_wall_s figure; all workloads"),
    "cache.get_s": Metric(
        "s", "cache", "lower", "warm_wall_s; all workloads"),
    "cache.hit_ratio": Metric(
        "frac", "cache", "higher", "warm_wall_s; all workloads"),
    "remote.lease_polls": Metric(
        "count", "remote", "lower", f"wall_s on {FLEET}"),
    "remote.specs_per_lease_poll": Metric(
        "ratio", "remote", "higher", f"wall_s on {FLEET}"),
    "remote.lease_to_publish_p50_s": Metric(
        "s", "remote", "lower", f"wall_s on {FLEET}"),
    "remote.lease_to_publish_p95_s": Metric(
        "s", "remote", "lower", f"wall_s on {FLEET}"),
    "remote.lease_to_publish_samples": Metric(
        "count", "remote", "higher", f"wall_s on {FLEET}"),
    "remote.result_bytes": Metric(
        "bytes", "remote", "lower", f"wall_s on {FLEET}"),
    "telemetry.spans": Metric(
        "count", "telemetry", "lower", f"wall_s on {FLEET}"),
    "protocol.accesses": Metric(
        "count", "protocol", "lower", "none (simulated)"),
    "protocol.coherence_misses": Metric(
        "count", "protocol", "lower", "none (simulated)"),
    "core.self_invalidations": Metric(
        "count", "core", "lower", "none (simulated)"),
    "core.predicted": Metric(
        "count", "core", "higher", "none (simulated)"),
    "core.mispredicted": Metric(
        "count", "core", "lower", "none (simulated)"),
    "core.useful_ratio": Metric(
        "ratio", "core", "higher", "none (simulated)"),
    "core.ltp_predicted_frac": Metric(
        "frac", "core", "higher", "none (simulated)"),
    "timing.sim_cycles": Metric(
        "cycles", "timing", "lower", "none (simulated)"),
    "timing.dir_queueing_mean_cycles": Metric(
        "cycles", "timing", "lower", "none (simulated)"),
    "timing.si_timeliness_frac": Metric(
        "frac", "timing", "higher", "none (simulated)"),
    "timing.ltp_speedup_geomean": Metric(
        "ratio", "timing", "higher", "none (simulated)"),
    "bench.trace_overhead_frac": Metric(
        "frac", "bench", "lower", "none (cost of the traced run)"),
}

#: the layer times that, with runner.coordination_s, add up to wall_s
WALL_PARTITION = (
    "workloads.trace_load_s",
    "trace.interleave_s",
    "runner.execute_s.accuracy",
    "runner.execute_s.timing",
    "runner.execute_s.oracle",
    "runner.execute_s.census",
    "cache.probe_s",
    "cache.put_s",
    "index.record_s",
    "runner.coordination_s",
)


def markdown() -> str:
    """The catalog as markdown tables (``run.py --catalog``)."""
    from grid import WORKLOADS

    lines = ["## Workloads", "", "| workload | why |", "| --- | --- |"]
    lines += [f"| `{name}` | {why} |" for name, why in WORKLOADS.items()]
    for title, table, last in (
        ("End-to-end metrics (JSON, untraced run)", END_TO_END, "meaning"),
        ("End-to-end figures printed beside them", CONTEXT, "meaning"),
        ("Per-layer metrics (JSON, traced run)", PER_LAYER, "should move"),
    ):
        lines += ["", f"## {title}", "",
                  f"| metric | unit | layer | better | {last} |",
                  "| --- | --- | --- | --- | --- |"]
        lines += [
            f"| `{name}` | {m.unit} | {m.layer} | {m.better} | {m.moves} |"
            for name, m in table.items()
        ]
    return "\n".join(lines)
