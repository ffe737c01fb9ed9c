"""Index consistency under concurrent publishers.

The acceptance bar for the result index as *infrastructure*: two real
runner processes and a remote broker fleet all publish into one cache
directory (so one ``index.sqlite``) — the two runners racing on the
very same digests — and at the end the index holds exactly one row
per unique digest, with no ``database is locked`` error ever
surfacing to a publisher — WAL mode, busy timeouts, and idempotent
digest-keyed upserts absorb the contention.
"""

import json
import multiprocessing
import threading

from repro.runner import (
    PolicySpec,
    ResultCache,
    Runner,
    accuracy_job,
    census_job,
    oracle_job,
    timing_job,
)
from repro.runner.remote import Broker, run_worker
from repro.store.index import ResultIndex

SIZE = "tiny"


def _grid(workload="em3d"):
    return [
        timing_job(workload, SIZE, PolicySpec(name=p))
        for p in ("base", "dsi", "ltp")
    ] + [
        accuracy_job(workload, SIZE, PolicySpec(name="ltp", bits=13)),
        oracle_job(workload, SIZE),
        census_job(workload, SIZE),
    ]


def _runner_member(cache_dir: str, out_path: str) -> None:
    try:
        Runner(cache=ResultCache(cache_dir)).run(_grid())
        payload = {"error": None}
    except Exception as exc:  # propagated to the parent's assert
        payload = {"error": f"{type(exc).__name__}: {exc}"}
    with open(out_path, "w") as handle:
        json.dump(payload, handle)


class TestConcurrentPublishers:
    def test_runner_pair_plus_broker_one_index(self, tmp_path):
        cache_dir = tmp_path / "shared-cache"
        ctx = multiprocessing.get_context("fork")

        # two plain runner processes publish the same grid...
        outs = [tmp_path / f"runner-{i}.json" for i in range(2)]
        runners = [
            ctx.Process(
                target=_runner_member,
                args=(str(cache_dir), str(out)),
            )
            for out in outs
        ]
        # ...while a broker + worker fleet publishes a second
        # workload's grid into the same cache concurrently
        broker_cache = ResultCache(cache_dir)
        broker = Broker(cache=broker_cache, lease_ttl=30.0)
        gid = broker.submit(_grid("tomcatv"))
        address = broker.bind()
        worker_proc = ctx.Process(
            target=run_worker,
            kwargs={"address": address, "name": "w0"},
        )
        # fork before the serving thread starts (as RemoteBackend
        # does), so no child inherits a lock a broker thread holds
        for proc in (*runners, worker_proc):
            proc.start()
        broker.serve()
        drained = threading.Thread(
            target=lambda: list(broker.stream(gid))
        )
        drained.start()
        drained.join(timeout=120)
        broker.begin_shutdown()
        for proc in (*runners, worker_proc):
            proc.join(timeout=120)
            assert proc.exitcode == 0
        broker.stop()
        assert not drained.is_alive()

        # no publisher saw an error (a surfaced "database is locked"
        # would land here as OperationalError text)
        for out in outs:
            with open(out) as handle:
                payload = json.load(handle)
            assert payload["error"] is None

        # one row per unique digest, exactly the blobs on disk
        index = ResultIndex(cache_dir)
        blobs = {
            path.stem for path in broker_cache.entry_paths()
        }
        expected = {
            broker_cache.key(spec)
            for spec in _grid() + _grid("tomcatv")
        }
        assert blobs == expected
        assert index.digests() == expected
        assert index.count() == len(expected)

        # broker-published rows carry the worker's name as holder;
        # plain runner publishes carry none
        rows = index.select("", ())
        holders = {
            row["digest"]: row["holder"] for row in rows
        }
        tomcatv_digests = {
            broker_cache.key(spec) for spec in _grid("tomcatv")
        }
        for digest in tomcatv_digests:
            assert holders[digest] == "w0"
        for digest in expected - tomcatv_digests:
            assert holders[digest] is None

    def test_threaded_hammer_single_digest_set(self, tmp_path):
        """Many threads upserting overlapping digests concurrently
        converge to one row each, with metrics intact."""
        index = ResultIndex(tmp_path)
        errors = []

        def hammer(worker_id: int) -> None:
            try:
                for round_no in range(20):
                    for digest_no in range(5):
                        index.record(
                            f"digest-{digest_no}",
                            None,
                            holder=f"t{worker_id}",
                            now=float(round_no),
                        )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert index.count() == 5
