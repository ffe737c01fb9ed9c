"""Fleet micro-bench: time-to-drain of one queue on a fixed worker pool.

A serve-mode service with a pool of two workers receives one submitted
60-spec grid (an ``si_fire_delay`` sweep over one workload — 60 unique
timing specs sharing a single trace, so worker start-up cost is real
but bounded) and the bench measures wall-clock from submit to the last
streamed result. ``start()`` forks the whole pool before the timed
region, so drain time is pure execution + protocol; the trend gate
flags a regression in either.
"""

from repro.fleet import FleetService
from repro.runner import (
    PolicySpec,
    ResultCache,
    submit_grid,
    timing_job,
)

QUEUE_SPECS = 60
WORKERS = 2


def _grid():
    # 60 unique specs, one shared workload fingerprint
    return [
        timing_job(
            "em3d", "tiny", PolicySpec(name="ltp"),
            si_fire_delay=delay,
        )
        for delay in range(QUEUE_SPECS)
    ]


def test_fleet_drain(benchmark, tmp_path):
    grid = _grid()
    rounds = iter(range(1000))
    last = {}

    def drain():
        # a fresh cache per round: every spec must execute remotely
        service = FleetService(
            cache=ResultCache(tmp_path / f"pool-{next(rounds)}"),
            workers=WORKERS,
            lease_ttl=20.0,
            poll=0.02,
            batch=4,
        )
        address = service.start()
        try:
            results = submit_grid(address, grid, timeout=600)
            assert len(results) == len(grid)
            last["service"] = service
        finally:
            service.stop()

    benchmark.pedantic(drain, rounds=2, iterations=1, warmup_rounds=0)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["queue_specs"] = QUEUE_SPECS
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["specs_per_second"] = QUEUE_SPECS / stats.mean
    benchmark.extra_info["workers_spawned"] = (
        last["service"].supervisor.spawned
    )
