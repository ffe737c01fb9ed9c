"""Micro-benchmarks for the coordination substrate.

Gauges for the machinery that schedules work but does none of it: the
remote lease/wire layer — lease-table transitions plus frame
encode/decode for a result-sized message — and the fair-share lease
rotation across tenant grids.

Both should stay far below simulation cost; the BENCH_*.json records
these emit let `benchmarks/trend.py` flag a coordination-layer
regression (an accidental fsync, a pickle blow-up) before it shows up
as mysterious fleet idle time.
"""

import io
import pickle

from repro.runner.remote import LeaseTable, encode_frame, read_frame

#: sha256-shaped keys, like real cache digests
KEYS = [f"{i:064x}" for i in range(32)]


def test_remote_lease_wire_overhead(benchmark):
    # a result-sized payload: a pickled report stand-in of ~100 floats
    report = pickle.dumps(
        {f"stat{i}": i * 1.5 for i in range(100)},
        protocol=pickle.HIGHEST_PROTOCOL,
    )

    def cycle():
        table = LeaseTable(KEYS, ttl=60.0, clock=lambda: 1000.0)
        frames = 0
        while not table.done():
            for key in table.lease("w", 4):
                frame = encode_frame({
                    "type": "result",
                    "worker": "w",
                    "key": key,
                    "report": report,
                })
                message = read_frame(io.BytesIO(frame))
                assert table.complete(message["key"])
                frames += 1
        assert frames == len(KEYS)

    benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["frames_per_cycle"] = len(KEYS)
    benchmark.extra_info["frame_bytes"] = len(
        encode_frame({
            "type": "result", "worker": "w",
            "key": KEYS[0], "report": report,
        })
    )


def test_fair_share_lease_overhead(benchmark):
    """The weighted round-robin across tenant grids must stay cheap:
    draining 8 grids x 32 keys through the fair-share rotation is
    pure bookkeeping, no I/O."""
    grids = {
        f"g{g}": [f"{g:02x}{i:062x}" for i in range(32)]
        for g in range(8)
    }

    def cycle():
        table = LeaseTable([], ttl=60.0, clock=lambda: 1000.0)
        for g, (grid, keys) in enumerate(grids.items()):
            table.extend(keys, group=grid, priority=1 + g % 2)
        granted = 0
        while not table.done():
            batch = table.lease("w", 4)
            assert batch
            for key in batch:
                assert table.complete(key)
            granted += len(batch)
        assert granted == sum(len(k) for k in grids.values())

    benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["tenant_grids"] = len(grids)
    benchmark.extra_info["keys_per_cycle"] = sum(
        len(k) for k in grids.values()
    )
