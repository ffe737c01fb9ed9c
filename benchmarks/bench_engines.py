"""Benchmark: the shipped timing engine vs its reference oracle.

Runs the Figure 9 timing grid (3 policies x 9 workloads) through the
shipped :class:`~repro.timing.TimingSimulator` with the package's
policies and the reference core in ``tests/oracle/`` with the reference
policies, on pre-built traces, so the measured ratio is pure
simulation throughput — the conformance suite already proves the two
byte-identical, this proves the shipped one is actually fast. The
BENCH record's ``stats_s`` times the shipped engine, with the
reference time and the speedup in ``extra_info``.

The same grid also gates the telemetry layer's overhead budget:
:func:`~repro.runner.execute_spec` opens the execute span, counts the
spec and observes the runner's execute histogram around
``_execute_spec_inner``, whose only recording is the once-per-spec
fold of the engine's event counts. Each spec runs ``OVERHEAD_ROUNDS``
times through each, the two back to back in alternating order, and
the grid's summed per-spec minimums must differ by under 5%, so what
the runner records per spec stays noise next to the simulation. No
simulator module imports the telemetry package
(``tests/unit/test_telemetry.py`` pins that), so nothing records per
event (see ``docs/observability.md``).
Back to back and minimums, because on a shared host the speed of a
whole grid run drifts by more than the budget; two runs of one spec a
fraction of a second apart see the same host.
"""

import time

from benchmarks.conftest import save_rendered
from repro.experiments import figure9
from repro.protocol.states import ProtocolVariant
from repro.runner import execute_spec
from repro.runner import runner as runner_module
from repro.timing import TimingSimulator
from repro.workloads import build_program_set
from tests.oracle import ReferenceTimingSimulator, reference_factory

SIZE = "small"

#: execute_spec/_execute_spec_inner alternations of the overhead gate
OVERHEAD_ROUNDS = 5


def _timing_specs():
    return [
        spec for spec in figure9.jobs(size=SIZE)
        if spec.kind == "timing"
    ]


def _build_engine(cls, spec):
    if cls is ReferenceTimingSimulator:
        factory = reference_factory(spec.policy)
    else:
        factory = spec.policy.build
    return cls(
        factory,
        config=spec.config,
        variant=ProtocolVariant[spec.variant.upper()],
        forwarding=spec.forwarding,
        si_fire_delay=spec.si_fire_delay,
    )


def test_engine_cores(benchmark, monkeypatch):
    specs = _timing_specs()
    # keyed like the runner's ProgramSet memo, which the overhead gate
    # swaps for this dict so execute_spec builds no trace while timed
    programs = {}
    for spec in specs:
        key = (spec.workload, spec.size, spec.overrides)
        if key not in programs:
            programs[key] = build_program_set(
                spec.workload, spec.size, **dict(spec.overrides)
            )

    def grid(cls):
        for spec in specs:
            _build_engine(cls, spec).run(
                programs[(spec.workload, spec.size, spec.overrides)]
            )

    start = time.perf_counter()
    grid(ReferenceTimingSimulator)
    reference_s = time.perf_counter() - start

    benchmark.pedantic(
        lambda: grid(TimingSimulator), rounds=1, iterations=1
    )
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    fast_s = stats.mean

    # overhead gate: each spec through execute_spec and the
    # _execute_spec_inner it wraps back to back, alternating which
    # goes first, keeping the minimum per spec and path
    monkeypatch.setattr(runner_module, "_PROGRAMS", programs)
    paths = (execute_spec, runner_module._execute_spec_inner)
    best = {path: [float("inf")] * len(specs) for path in paths}
    for round_no in range(OVERHEAD_ROUNDS):
        order = paths if round_no % 2 == 0 else paths[::-1]
        for i, spec in enumerate(specs):
            for path in order:
                start = time.perf_counter()
                path(spec)
                best[path][i] = min(
                    best[path][i], time.perf_counter() - start
                )

    recording_s = sum(best[execute_spec])
    bare_s = sum(best[runner_module._execute_spec_inner])
    speedup = reference_s / fast_s
    overhead = recording_s / bare_s - 1.0
    benchmark.extra_info["specs"] = len(specs)
    benchmark.extra_info["reference_s"] = round(reference_s, 3)
    benchmark.extra_info["reference_specs_per_s"] = round(
        len(specs) / reference_s, 3
    )
    benchmark.extra_info["fast_specs_per_s"] = round(
        len(specs) / fast_s, 3
    )
    benchmark.extra_info["engine_speedup"] = round(speedup, 3)
    benchmark.extra_info["fast_recording_s"] = round(recording_s, 3)
    benchmark.extra_info["fast_bare_s"] = round(bare_s, 3)
    benchmark.extra_info["telemetry_overhead"] = round(overhead, 4)
    save_rendered(
        "engine_cores",
        f"timing engine vs reference core on the figure-9 grid "
        f"({len(specs)} specs, size={SIZE!r})\n"
        f"  reference  {reference_s:7.2f}s "
        f"({len(specs) / reference_s:5.2f} specs/s)\n"
        f"  fast       {fast_s:7.2f}s "
        f"({len(specs) / fast_s:5.2f} specs/s)\n"
        f"  speedup    {speedup:6.2f}x\n"
        f"  telemetry  {overhead:+7.1%} "
        f"(summed per-spec min of {OVERHEAD_ROUNDS}: execute_spec "
        f"{recording_s:.2f}s, _execute_spec_inner {bare_s:.2f}s)",
    )
    # the point of shipping the optimized engine; measured ~2.1x,
    # gated loosely so shared-runner noise can't flake the job
    assert speedup >= 1.6, f"engine only {speedup:.2f}x the reference"
    # telemetry folds engine counters and observes the histogram once
    # per spec, never per event; the budget is mostly noise allowance
    assert overhead < 0.05, (
        f"telemetry overhead {overhead:.1%} (execute_spec "
        f"{recording_s:.2f}s vs _execute_spec_inner {bare_s:.2f}s)"
    )
