"""Tests for the persistent ProgramSet build cache: golden event-level
equality of cache hits, invalidation on builder-version/seed/param
changes, corruption handling, and the runner integration that lets a
warm cache skip every build in a fresh process."""

import copy
import copyreg
import dataclasses
import hashlib
import io
import pickle

import pytest

from repro.codecs import blob_codec
from repro.core import PerBlockLTP
from repro.sim import AccuracySimulator
from repro.timing import TimingSimulator
from repro.trace import program as program_mod
from repro.runner import runner as runner_module
from repro.runner import (
    InlineBackend,
    PolicySpec,
    PoolBackend,
    RemoteBackend,
    Runner,
    accuracy_job,
    census_job,
    timing_job,
)
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from repro.workloads import (
    WORKLOAD_NAMES,
    TraceCache,
    build_program_set,
    cached_build,
    get_workload,
    trace_key,
)

WORKLOAD = "em3d"
SIZE = "tiny"


def assert_event_identical(a, b):
    """Event-for-event structural equality of two ProgramSets (slots
    dataclasses don't define __eq__ across instances usefully for
    steps, so compare field dicts)."""
    assert a.name == b.name
    assert a.num_nodes == b.num_nodes
    assert sorted(a.programs) == sorted(b.programs)
    for node in a.programs:
        steps_a = a.programs[node].steps
        steps_b = b.programs[node].steps
        assert len(steps_a) == len(steps_b), f"node {node} length"
        for i, (sa, sb) in enumerate(zip(steps_a, steps_b)):
            assert type(sa) is type(sb), f"node {node} step {i}"
            fields = [f.name for f in dataclasses.fields(sa)]
            for name in fields:
                assert getattr(sa, name) == getattr(sb, name), (
                    f"node {node} step {i} field {name}"
                )


class TestGoldenTraces:
    def test_cache_hit_is_event_for_event_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        fresh = get_workload(WORKLOAD, SIZE).build()
        first = cached_build(get_workload(WORKLOAD, SIZE), cache)
        assert cache.builds == 1 and cache.hits == 0
        second = cached_build(get_workload(WORKLOAD, SIZE), cache)
        assert cache.builds == 1 and cache.hits == 1
        assert_event_identical(fresh, first)
        assert_event_identical(fresh, second)
        # and byte-identical once pickled (what workers actually load)
        assert pickle.dumps(fresh) == pickle.dumps(second)

    def test_every_workload_round_trips(self, tmp_path):
        # the full Table 2 set at tiny size: pickling must preserve all
        # step types every generator emits
        from repro.workloads import WORKLOAD_NAMES

        cache = TraceCache(tmp_path)
        for name in WORKLOAD_NAMES:
            fresh = get_workload(name, SIZE).build()
            cached_build(get_workload(name, SIZE), cache)
            reloaded = cached_build(get_workload(name, SIZE), cache)
            assert_event_identical(fresh, reloaded)
        assert cache.entries() == len(WORKLOAD_NAMES)

    def test_slot_state_entry_still_loads(self, tmp_path):
        """Steps pickle as their constructor arguments; an entry
        written with the default per-object slot-state reduction (the
        earlier format) still loads and equals a fresh build when it
        sits at the current address, so the load path does not depend
        on the step reduction."""
        steps = (Access, Barrier, LockAcquire, LockRelease)

        class SlotStatePickler(pickle.Pickler):
            def reducer_override(self, obj):
                cls = type(obj)
                if cls not in steps:
                    return NotImplemented
                state = {name: getattr(obj, name) for name in cls.__slots__}
                return copyreg.__newobj__, (cls,), (None, state)

        workload = get_workload("appbt", SIZE)  # all four step types
        fresh = workload.build()
        assert {
            type(step)
            for program in fresh.programs.values()
            for step in program.steps
        } == set(steps)
        buf = io.BytesIO()
        SlotStatePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(fresh)
        old = buf.getvalue()
        assert len(old) > len(pickle.dumps(fresh, pickle.HIGHEST_PROTOCOL))
        cache = TraceCache(tmp_path)
        path = cache.path(workload)
        path.parent.mkdir(parents=True)
        path.write_bytes(old)
        hit, loaded = cache.get(workload)
        assert hit
        assert_event_identical(fresh, loaded)
        assert pickle.dumps(loaded) == pickle.dumps(fresh)


def step_counts(programs):
    """``(steps, step objects, distinct step values)`` of a ProgramSet."""
    steps = [s for p in programs.programs.values() for s in p.steps]
    values = {(type(s), dataclasses.astuple(s)) for s in steps}
    return len(steps), len({id(s) for s in steps}), len(values)


def unshared_copy(programs):
    """``programs`` with every step a separate object, the way entries
    were written before builds shared equal steps."""
    return ProgramSet(
        programs.name,
        programs.num_nodes,
        {
            node: Program(node, [copy.copy(s) for s in prog.steps])
            for node, prog in programs.programs.items()
        },
        programs.shared_blocks,
    )


def timing_memo_objects(programs):
    """Distinct step tuples in the timing compile memoized for
    ``programs`` at the default block size."""
    steps, _, _ = program_mod._COMPILED[id(programs)][
        ("timing", 5, programs.num_nodes)
    ]
    return len({id(op) for node_steps in steps for op in node_steps})


class TestSharedSteps:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_equal_steps_are_one_object(self, tmp_path, name):
        """A build shares one object between equal steps, and a trace
        cache round trip keeps that sharing."""
        cache = TraceCache(tmp_path)
        built = cached_build(get_workload(name, SIZE), cache)
        hit, loaded = cache.get(get_workload(name, SIZE))
        assert hit
        for programs in (built, loaded):
            steps, objects, values = step_counts(programs)
            assert objects == values < steps

    def test_unshared_entry_still_serves(self, tmp_path):
        """An entry whose steps are all separate objects (how entries
        were written before builds shared equal steps) loads as a hit
        when it sits at the current address, equals a fresh build,
        gives identical reports, and compiles no larger than a shared
        build. ``TRACE_SCHEMA`` 2 keeps the real ones away (see
        ``test_schema_1_entry_is_rebuilt_shared``)."""
        workload = get_workload("appbt", SIZE)  # all four step types
        fresh = workload.build()
        unshared = unshared_copy(fresh)
        steps, objects, _ = step_counts(unshared)
        assert objects == steps
        cache = TraceCache(tmp_path)
        path = cache.path(workload)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps(unshared, protocol=pickle.HIGHEST_PROTOCOL)
        )
        hit, loaded = cache.get(workload)
        assert hit
        assert step_counts(loaded) == step_counts(unshared)
        assert_event_identical(fresh, loaded)
        for sim in (
            AccuracySimulator(lambda n: PerBlockLTP()),
            TimingSimulator(lambda n: PerBlockLTP()),
        ):
            assert pickle.dumps(sim.run(loaded)) == pickle.dumps(
                sim.run(fresh)
            )
        assert timing_memo_objects(loaded) <= timing_memo_objects(fresh)

    def test_schema_1_entry_is_rebuilt_shared(self, tmp_path):
        """An unshared entry at its schema-1 address is not served:
        ``cached_build`` rebuilds it once and writes a shared entry at
        the current address."""
        workload = get_workload("appbt", SIZE)
        fresh = workload.build()
        unshared = unshared_copy(fresh)
        cache = TraceCache(tmp_path)
        old_key = hashlib.sha256(
            f"repro-trace/1/{workload.fingerprint()}".encode("utf-8")
        ).hexdigest()
        old_path = tmp_path / old_key[:2] / f"{old_key}.pkl"
        old_path.parent.mkdir(parents=True)
        old_path.write_bytes(
            pickle.dumps(unshared, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert cache.path(workload) != old_path
        assert cache.get(workload) == (False, None)
        built = cached_build(workload, cache)
        assert cache.builds == 1 and cache.hits == 0
        hit, loaded = TraceCache(tmp_path).get(workload)
        assert hit
        for programs in (built, loaded):
            steps, objects, values = step_counts(programs)
            assert objects == values < steps
        assert_event_identical(fresh, loaded)


class TestLayout:
    def test_entries_live_under_the_schema_directory(self, tmp_path):
        """Only the current schema's directory holds live entries; an
        entry under another schema's directory is an orphan."""
        from repro.workloads.trace_cache import TRACE_SCHEMA

        cache = TraceCache(tmp_path)
        workload = get_workload(WORKLOAD, SIZE)
        cached_build(workload, cache)
        path = cache.path(workload)
        assert path.parent.parent == tmp_path / f"v{TRACE_SCHEMA}"
        other = tmp_path / "v1" / path.parent.name / path.name
        other.parent.mkdir(parents=True)
        other.write_bytes(path.read_bytes())
        assert list(cache.entry_paths()) == [path]
        assert list(cache.orphan_paths()) == [other]
        assert cache.remove_orphans() == 1
        assert not other.exists() and cache.get(workload)[0]


class TestInvalidation:
    def test_seed_changes_key(self, tmp_path):
        cache = TraceCache(tmp_path)
        base = get_workload(WORKLOAD, SIZE)
        reseeded = get_workload(WORKLOAD, SIZE, seed=99)
        assert cache.key(base) != cache.key(reseeded)
        cached_build(base, cache)
        hit, _ = cache.get(reseeded)
        assert not hit

    def test_builder_version_changes_key(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        workload = get_workload(WORKLOAD, SIZE)
        old_key = cache.key(workload)
        cached_build(workload, cache)
        monkeypatch.setattr(
            type(workload), "builder_version",
            type(workload).builder_version + 1,
        )
        bumped = get_workload(WORKLOAD, SIZE)
        assert cache.key(bumped) != old_key
        hit, _ = cache.get(bumped)
        assert not hit, "bumping builder_version must orphan old traces"
        rebuilt = cached_build(bumped, cache)
        assert cache.builds == 2
        assert_event_identical(rebuilt, workload.build())

    def test_size_and_param_overrides_change_key(self, tmp_path):
        cache = TraceCache(tmp_path)
        keys = {
            cache.key(get_workload(WORKLOAD, "tiny")),
            cache.key(get_workload(WORKLOAD, "small")),
            cache.key(get_workload(WORKLOAD, "tiny", num_nodes=8)),
            cache.key(get_workload(WORKLOAD, "tiny", iterations=3)),
        }
        assert len(keys) == 4

    def test_workload_name_distinguishes(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.key(get_workload("em3d", SIZE)) != cache.key(
            get_workload("tomcatv", SIZE)
        )


class TestRobustness:
    @pytest.mark.parametrize("codec, damage", [
        ("none", lambda blob: b"not a pickle"),
        ("zlib", lambda blob: blob[:7]),
        ("zlib", lambda blob: blob[: len(blob) // 2]),
        ("zlib", lambda blob: blob[:-16] + b"\x00" * 16),
        ("zlib", lambda blob: b"LTPZ" + bytes([3]) + b"lz9" + blob[9:]),
    ], ids=[
        "garbage", "torn-header", "truncated", "corrupted", "unknown-codec",
    ])
    def test_corrupt_entry_is_rebuilt(self, tmp_path, codec, damage):
        """A bad entry reads as a miss, and the next build rewrites a
        healthy one — it never fails the caller."""
        cache = TraceCache(tmp_path, codec=codec)
        workload = get_workload(WORKLOAD, SIZE)
        cached_build(workload, cache)
        path = cache.path(workload)
        path.write_bytes(damage(path.read_bytes()))
        rebuilt = cached_build(get_workload(WORKLOAD, SIZE), cache)
        assert cache.builds == 2 and cache.hits == 0
        assert_event_identical(rebuilt, workload.build())
        assert TraceCache(tmp_path).get(workload)[0]

    def test_wrong_type_entry_is_rebuilt(self, tmp_path):
        cache = TraceCache(tmp_path)
        workload = get_workload(WORKLOAD, SIZE)
        path = cache.path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a ProgramSet"}))
        hit, value = cache.get(workload)
        assert not hit and value is None
        assert not path.exists()

    def test_build_program_set_helper(self, tmp_path):
        cache = TraceCache(tmp_path)
        a = build_program_set(WORKLOAD, SIZE, cache=cache)
        b = build_program_set(WORKLOAD, SIZE, cache=cache)
        assert cache.hits == 1
        assert_event_identical(a, b)
        # cache=None bypasses
        c = build_program_set(WORKLOAD, SIZE)
        assert cache.hits == 1
        assert_event_identical(a, c)


class TestRunnerIntegration:
    def _grid(self):
        return [
            timing_job(WORKLOAD, SIZE, PolicySpec(name="ltp")),
            accuracy_job(WORKLOAD, SIZE, PolicySpec(name="ltp", bits=13)),
            census_job(WORKLOAD, SIZE),
            census_job("tomcatv", SIZE),
        ]

    @pytest.mark.parametrize("make_backend", [
        InlineBackend,
        lambda: PoolBackend(jobs=2),
        lambda: RemoteBackend(
            workers=2, lease_ttl=20.0, poll=0.02, timeout=240
        ),
    ], ids=["inline", "pool", "remote"])
    def test_warm_trace_cache_skips_all_builds(
        self, tmp_path, make_backend
    ):
        """Whichever backend runs the cold grid, its processes build
        into the runner's one trace cache — no trace crosses a wire —
        so a warm rerun builds nothing."""
        grid = self._grid()
        workloads = {(s.workload, s.size, s.overrides) for s in grid}

        cold = TraceCache(tmp_path / "traces", codec="zlib")
        runner_module._PROGRAMS.clear()
        first = Runner(trace_cache=cold, backend=make_backend()).run(grid)
        # pool and remote builds happen in forked workers, so the
        # cache's files, not this process's counters, are the record:
        # exactly one entry per unique workload fingerprint, written
        # in the runner's codec
        entries = list(cold.entry_paths())
        assert sorted(p.stem for p in entries) == sorted(
            trace_key(get_workload(name, size, **dict(overrides)))
            for name, size, overrides in workloads
        )
        assert {blob_codec(p.read_bytes()) for p in entries} == {"zlib"}

        # a fresh process has an empty per-process memo; clearing it
        # simulates worker start-up on the same machine
        runner_module._PROGRAMS.clear()
        warm = TraceCache(tmp_path / "traces")
        second = Runner(trace_cache=warm).run(grid)
        assert warm.builds == 0, "warm cache must skip every build"
        assert warm.hits == len(workloads)
        for spec in grid:
            assert pickle.dumps(first[spec]) == pickle.dumps(second[spec])

        # and results equal a run with no trace cache at all
        runner_module._PROGRAMS.clear()
        plain = Runner().run(grid)
        for spec in grid:
            assert pickle.dumps(plain[spec]) == pickle.dumps(second[spec])

    def test_trace_cache_global_restored_after_run(self, tmp_path):
        runner_module._PROGRAMS.clear()
        assert runner_module._TRACE_CACHE is None
        Runner(trace_cache=TraceCache(tmp_path)).run(
            [census_job(WORKLOAD, SIZE)]
        )
        assert runner_module._TRACE_CACHE is None


class TestMmapEntryReads:
    """The read path maps raw entries instead of copying them into a
    private buffer; the degenerate files an atomic-write crash can
    leave behind must still degrade to misses."""

    def _warm(self, tmp_path, codec="none"):
        cache = TraceCache(tmp_path, codec=codec)
        cached_build(get_workload(WORKLOAD, SIZE), cache)
        return cache

    def test_raw_entry_served_from_the_mapping(
        self, tmp_path, monkeypatch
    ):
        import mmap as mmap_module

        from repro.workloads import trace_cache as tc_module

        cache = self._warm(tmp_path)
        mapped = []
        real_mmap = mmap_module.mmap

        def recording_mmap(*args, **kwargs):
            mapped.append(args)
            return real_mmap(*args, **kwargs)

        monkeypatch.setattr(tc_module.mmap, "mmap", recording_mmap)
        hit, programs = cache.get(get_workload(WORKLOAD, SIZE))
        assert hit and mapped, "raw entry must be read via mmap"
        assert_event_identical(
            programs, get_workload(WORKLOAD, SIZE).build()
        )

    def test_packed_entry_still_decodes(self, tmp_path):
        cache = self._warm(tmp_path, codec="zlib")
        # a none-configured reader decodes the zlib entry transparently
        hit, programs = TraceCache(tmp_path).get(
            get_workload(WORKLOAD, SIZE)
        )
        assert hit
        assert_event_identical(
            programs, get_workload(WORKLOAD, SIZE).build()
        )

    def test_empty_entry_degrades_to_miss(self, tmp_path):
        cache = self._warm(tmp_path)
        path = cache.path(get_workload(WORKLOAD, SIZE))
        path.write_bytes(b"")  # mmap refuses empty files
        hit, programs = cache.get(get_workload(WORKLOAD, SIZE))
        assert not hit and programs is None
        assert not path.exists(), "corrupt entry must be dropped"

    def test_unmappable_file_falls_back_to_plain_read(
        self, tmp_path, monkeypatch
    ):
        from repro.workloads import trace_cache as tc_module

        cache = self._warm(tmp_path)

        def refuse(*args, **kwargs):
            raise OSError("no mmap here")

        monkeypatch.setattr(tc_module.mmap, "mmap", refuse)
        hit, programs = cache.get(get_workload(WORKLOAD, SIZE))
        assert hit, "read() fallback must still serve the entry"
        assert_event_identical(
            programs, get_workload(WORKLOAD, SIZE).build()
        )
