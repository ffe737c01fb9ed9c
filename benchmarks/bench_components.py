"""Micro-benchmarks of the simulation substrates.

These measure the throughput of the hot paths — the one-time stream
build (the scheduler writing a ProgramSet's replay-ready stream), the
accuracy kernel (the simulator loop over the dense-id coherence engine)
under each predictor, and timing-engine events — so regressions in the
library's own performance are visible alongside the experiment
regenerations. The accuracy benchmarks build their workload's stream
before timing starts, as a grid does once per workload, so they time
the kernel alone.
"""

from repro.core import GlobalLTP, LastPCPredictor, NullPolicy, PerBlockLTP
from repro.sim import AccuracySimulator
from repro.sim.functional import DEFAULT_BLOCK_SHIFT
from repro.timing import SystemConfig, TimingSimulator
from repro.trace.scheduler import schedule
from repro.workloads import get_workload

PROGRAMS = get_workload("em3d", "small").build()


def test_stream_build_throughput(benchmark):
    stream = benchmark(schedule, PROGRAMS, 1, DEFAULT_BLOCK_SHIFT)
    assert stream.accesses > 0
    assert len(stream.events) == len(stream.ids)


def _kernel(factory) -> AccuracySimulator:
    sim = AccuracySimulator(factory)
    sim.run(PROGRAMS)  # compiles the stream outside the measurement
    return sim


def test_coherence_engine_throughput(benchmark):
    sim = _kernel(lambda n: NullPolicy())
    rep = benchmark(sim.run, PROGRAMS)
    assert rep.not_predicted > 0


def test_per_block_ltp_throughput(benchmark):
    rep = benchmark.pedantic(
        _kernel(lambda n: PerBlockLTP()).run, args=(PROGRAMS,),
        rounds=2, iterations=1,
    )
    assert rep.predicted > 0


def test_global_ltp_throughput(benchmark):
    rep = benchmark.pedantic(
        _kernel(lambda n: GlobalLTP()).run, args=(PROGRAMS,),
        rounds=2, iterations=1,
    )
    assert rep.accesses > 0


def test_last_pc_throughput(benchmark):
    rep = benchmark.pedantic(
        _kernel(lambda n: LastPCPredictor()).run, args=(PROGRAMS,),
        rounds=2, iterations=1,
    )
    assert rep.accesses > 0


def test_timing_engine_throughput(benchmark):
    def run():
        return TimingSimulator(
            lambda n: NullPolicy(), SystemConfig(num_nodes=PROGRAMS.num_nodes)
        ).run(PROGRAMS)

    rep = benchmark.pedantic(run, rounds=2, iterations=1)
    assert rep.execution_cycles > 0
