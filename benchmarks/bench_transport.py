"""End-to-end remote-backend transport throughput micro-bench.

Fleet throughput: a cold 2-worker remote run over localhost (broker +
forked ``run_worker`` processes, each building the traces it needs),
so the BENCH record exposes specs/second and the report bytes that
crossed the wire.
"""

from repro.runner import (
    PolicySpec,
    RemoteBackend,
    ResultCache,
    Runner,
    census_job,
    timing_job,
)
from repro.runner import runner as runner_module

WORKERS = 2


def _grid():
    return [
        census_job("em3d", "tiny"),
        census_job("tomcatv", "tiny"),
        census_job("moldyn", "tiny"),
        timing_job("em3d", "tiny", PolicySpec(name="base")),
        timing_job("em3d", "tiny", PolicySpec(name="ltp")),
        timing_job("tomcatv", "tiny", PolicySpec(name="ltp")),
    ]


def test_remote_fleet_throughput(benchmark, tmp_path):
    grid = _grid()
    rounds = iter(range(1000))
    last = {}

    def fleet():
        # a fresh cache per round: every spec and report travels the
        # wire; no runner trace cache, so cold workers build locally
        root = tmp_path / f"round-{next(rounds)}"
        backend = RemoteBackend(
            workers=WORKERS, batch=2, lease_ttl=20.0, poll=0.02,
            timeout=240,
        )
        runner = Runner(cache=ResultCache(root), backend=backend)
        runner_module._PROGRAMS.clear()
        results = runner.run(grid)
        assert len(results) == len(grid)
        last["stats"] = backend.broker.stats

    benchmark.pedantic(fleet, rounds=3, iterations=1, warmup_rounds=0)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    broker = last["stats"]
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["specs"] = len(grid)
    benchmark.extra_info["specs_per_second"] = len(grid) / stats.mean
    benchmark.extra_info["report_bytes_on_wire"] = broker.result_bytes
