"""Micro-benchmarks of the simulation substrates.

These measure the throughput of the hot paths — the one-time stream
build (the scheduler writing a ProgramSet's replay-ready stream) and
fold (one block per class of equal histories), the accuracy kernel
(the simulator loop over the dense-id coherence engine) under each
predictor, and timing-engine events — so regressions in the library's
own performance are visible alongside the experiment regenerations.
The accuracy benchmarks build (and fold) their workload's stream
before timing starts, as a grid does once per workload, so they time
the kernel alone.

The block-local kernels (null, per-block LTP, Last-PC) replay the
folded stream: em3d small folds to 0.6% of its accesses, so they run
on raytrace small, which keeps 94.9%, to time the kernel and not the
fold.
"""

from repro.core import GlobalLTP, LastPCPredictor, NullPolicy, PerBlockLTP
from repro.sim import AccuracySimulator
from repro.sim.functional import DEFAULT_BLOCK_SHIFT
from repro.timing import SystemConfig, TimingSimulator
from repro.trace.scheduler import fold, schedule
from repro.workloads import get_workload

PROGRAMS = get_workload("em3d", "small").build()
#: the block-local kernels' workload: few of its blocks fold together
IRREGULAR = get_workload("raytrace", "small").build()


def test_stream_build_throughput(benchmark):
    stream = benchmark(schedule, PROGRAMS, 1, DEFAULT_BLOCK_SHIFT)
    assert stream.accesses > 0
    assert len(stream.events) == len(stream.ids)


def test_stream_fold_throughput(benchmark):
    stream = schedule(PROGRAMS, 1, DEFAULT_BLOCK_SHIFT)
    folded = benchmark(fold, stream)
    assert folded.accesses == stream.accesses
    assert max(folded.weights) > 1


def _kernel(factory, programs=PROGRAMS) -> AccuracySimulator:
    sim = AccuracySimulator(factory)
    sim.run(programs)  # compiles the stream outside the measurement
    return sim


def test_coherence_engine_throughput_raytrace(benchmark):
    sim = _kernel(lambda n: NullPolicy(), IRREGULAR)
    rep = benchmark(sim.run, IRREGULAR)
    assert rep.not_predicted > 0


def test_per_block_ltp_throughput_raytrace(benchmark):
    rep = benchmark.pedantic(
        _kernel(lambda n: PerBlockLTP(), IRREGULAR).run, args=(IRREGULAR,),
        rounds=2, iterations=1,
    )
    assert rep.predicted > 0


def test_global_ltp_throughput(benchmark):
    rep = benchmark.pedantic(
        _kernel(lambda n: GlobalLTP()).run, args=(PROGRAMS,),
        rounds=2, iterations=1,
    )
    assert rep.accesses > 0


def test_last_pc_throughput_raytrace(benchmark):
    rep = benchmark.pedantic(
        _kernel(lambda n: LastPCPredictor(), IRREGULAR).run,
        args=(IRREGULAR,), rounds=2, iterations=1,
    )
    assert rep.accesses > 0


def test_timing_engine_throughput(benchmark):
    def run():
        return TimingSimulator(
            lambda n: NullPolicy(), SystemConfig(num_nodes=PROGRAMS.num_nodes)
        ).run(PROGRAMS)

    rep = benchmark.pedantic(run, rounds=2, iterations=1)
    assert rep.execution_cycles > 0
