"""End-to-end remote-backend transport throughput micro-benches.

Three gauges for the wire and the compression codecs:

* fleet throughput — a cold 2-worker remote run over localhost
  (broker + forked ``run_worker`` processes, each building the traces
  it needs), measured once per codec so the BENCH records expose
  specs/second compressed vs uncompressed;
* wire-frame size for a ``paper``-size report, compressed vs raw —
  the worker->broker result frame must shrink under zlib;
* packed-entry size for a ``paper``-size ``ProgramSet`` trace — what
  a ``--codec zlib`` trace cache stores (33.5x smaller for ``em3d``).

The two size checks assert strict inequality (compressed < raw), so a
codec regression that stops compressing fails the bench smoke job
outright rather than drifting through the trend gate.
"""

import pickle

import pytest

from repro.codecs import pack
from repro.runner import (
    PolicySpec,
    RemoteBackend,
    ResultCache,
    Runner,
    census_job,
    encode_frame,
    execute_spec,
    timing_job,
)
from repro.runner import runner as runner_module
from repro.workloads import get_workload

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


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_remote_fleet_throughput(benchmark, tmp_path, codec):
    grid = _grid()
    rounds = iter(range(1000))
    last = {}

    def fleet():
        # a fresh cache per round: every spec and report travels the
        # wire; no runner trace cache, so cold workers build locally
        root = tmp_path / f"{codec}-{next(rounds)}"
        backend = RemoteBackend(
            workers=WORKERS, batch=2, lease_ttl=20.0, poll=0.02,
            timeout=240, codec=codec,
        )
        runner = Runner(
            cache=ResultCache(root, codec=codec), backend=backend
        )
        runner_module._PROGRAMS.clear()
        results = runner.run(grid)
        assert len(results) == len(grid)
        last["stats"] = backend.broker.stats

    benchmark.pedantic(fleet, rounds=3, iterations=1, warmup_rounds=0)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    broker = last["stats"]
    benchmark.extra_info["codec"] = codec
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["specs"] = len(grid)
    benchmark.extra_info["specs_per_second"] = len(grid) / stats.mean
    benchmark.extra_info["report_bytes_on_wire"] = broker.result_bytes


def test_paper_report_frame_compression(benchmark):
    """A ``paper``-size report's result frame: zlib must be strictly
    smaller than the raw frame (the acceptance gate for report
    compression on the worker->broker path)."""
    report = execute_spec(census_job("em3d", "paper"))
    data = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
    key = "k" * 64

    def frames():
        raw = encode_frame({
            "type": "result", "worker": "w", "key": key,
            "report": pack(data, "none"),
        })
        packed = encode_frame({
            "type": "result", "worker": "w", "key": key,
            "report": pack(data, "zlib"),
        })
        return len(raw), len(packed)

    raw_len, packed_len = benchmark.pedantic(
        frames, rounds=5, iterations=1, warmup_rounds=1
    )
    assert packed_len < raw_len, (
        "compressed result frame must be strictly smaller than raw"
    )
    benchmark.extra_info["raw_frame_bytes"] = raw_len
    benchmark.extra_info["zlib_frame_bytes"] = packed_len


def test_paper_trace_blob_compression(benchmark):
    """Packing a ``paper``-size ProgramSet trace: the entry a zlib
    trace cache writes must compress far below the raw pickle (and the
    bench measures the pack cost paid once per build)."""
    programs = get_workload("em3d", "paper").build()
    raw = pickle.dumps(programs, protocol=pickle.HIGHEST_PROTOCOL)

    def pack_blob():
        return len(pack(raw, "zlib"))

    packed_len = benchmark.pedantic(
        pack_blob, rounds=3, iterations=1, warmup_rounds=0
    )
    assert packed_len < len(raw), (
        "compressed trace blob must be strictly smaller than raw"
    )
    benchmark.extra_info["raw_trace_bytes"] = len(raw)
    benchmark.extra_info["zlib_trace_bytes"] = packed_len
    benchmark.extra_info["compression_ratio"] = round(
        len(raw) / max(1, packed_len), 1
    )
