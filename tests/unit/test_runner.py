"""Tests for the runner subsystem: spec identity, the content-addressed
cache (hits, misses, salt invalidation, corruption), and serial/parallel
determinism."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure9, table4, traffic
from repro.runner import (
    JobSpec,
    PolicySpec,
    ResultCache,
    Runner,
    accuracy_job,
    census_job,
    execute_spec,
    oracle_job,
    timing_job,
)

WORKLOAD = "em3d"
SIZE = "tiny"


def _grid():
    return [
        timing_job(WORKLOAD, SIZE, PolicySpec(name=p))
        for p in ("base", "dsi", "ltp")
    ] + [
        accuracy_job(WORKLOAD, SIZE, PolicySpec(name="ltp", bits=13)),
        census_job(WORKLOAD, SIZE),
    ]


class TestJobSpec:
    def test_equal_specs_hash_equal(self):
        a = timing_job(WORKLOAD, SIZE, PolicySpec(name="ltp"))
        b = timing_job(WORKLOAD, SIZE, PolicySpec(name="ltp"))
        assert a == b and hash(a) == hash(b)
        assert a.canonical() == b.canonical()

    def test_canonical_rendered_once_and_never_pickled(
        self, monkeypatch
    ):
        """A second ``canonical()`` call reuses the first rendering,
        and the memo stays out of the pickled spec, equality and
        hashing."""
        import dataclasses

        spec = timing_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"),
            overrides=(("seed", 3),),
        )
        before = pickle.dumps(spec)
        first = spec.canonical()
        calls = []
        real_asdict = dataclasses.asdict

        def counting_asdict(*args, **kwargs):
            calls.append(args)
            return real_asdict(*args, **kwargs)

        monkeypatch.setattr(dataclasses, "asdict", counting_asdict)
        assert spec.canonical() == first
        assert calls == []
        assert pickle.dumps(spec) == before
        twin = timing_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"),
            overrides=(("seed", 3),),
        )
        assert spec == twin and hash(spec) == hash(twin)
        assert pickle.loads(before).canonical() == first

    def test_canonical_is_not_shared_between_equal_specs(self):
        """Equal specs may render differently, so the memo is per
        instance, never by value."""
        whole = census_job(WORKLOAD, SIZE, overrides=(("scale", 1),))
        real = census_job(WORKLOAD, SIZE, overrides=(("scale", 1.0),))
        assert whole == real
        assert whole.canonical() != real.canonical()
        assert '"scale",1.0' in real.canonical()

    def test_dict_overrides_normalise(self):
        a = accuracy_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"),
            overrides={"seed": 7},
        )
        b = accuracy_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"),
            overrides=(("seed", 7),),
        )
        assert a == b

    def test_confidence_normalises(self):
        a = PolicySpec(
            name="ltp",
            confidence={"initial": 2, "predict_threshold": 2},
        )
        b = PolicySpec(
            name="ltp",
            confidence=(("predict_threshold", 2), ("initial", 2)),
        )
        assert a == b

    def test_knobs_change_identity(self):
        base = timing_job(WORKLOAD, SIZE, PolicySpec(name="ltp"))
        assert base != timing_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"), si_fire_delay=500
        )
        assert base != timing_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"), forwarding=True
        )
        assert base != timing_job(
            WORKLOAD, SIZE, PolicySpec(name="ltp"), variant="downgrade"
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="nonsense", workload=WORKLOAD)
        with pytest.raises(ConfigurationError):
            PolicySpec(name="magic")
        for bad in (
            {"bits": 0},
            {"bits": 65},
            {"entries_per_block": 0},
            {"entries_per_block": -3},
            {"confidence": (("initial", 9),)},
            {"confidence": (("bogus", 1),)},
        ):
            with pytest.raises(ConfigurationError):
                PolicySpec(name="ltp", **bad)
        with pytest.raises(ConfigurationError):
            timing_job(WORKLOAD, SIZE, PolicySpec(name="ltp"),
                       variant="sideways")
        with pytest.raises(ConfigurationError):
            Runner(jobs=0)

    def test_specs_pickle(self):
        for spec in _grid():
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestExecuteSpec:
    def test_kinds_produce_expected_reports(self):
        timing = execute_spec(
            timing_job(WORKLOAD, SIZE, PolicySpec(name="ltp"))
        )
        assert timing.execution_cycles > 0
        accuracy = execute_spec(
            accuracy_job(WORKLOAD, SIZE, PolicySpec(name="ltp"))
        )
        assert accuracy.total_invalidations > 0
        oracle = execute_spec(oracle_job(WORKLOAD, SIZE))
        assert (
            oracle.predicted_fraction >= accuracy.predicted_fraction
        )
        census = execute_spec(census_job(WORKLOAD, SIZE))
        assert census.total_blocks > 0


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = census_job(WORKLOAD, SIZE)
        assert cache.get(spec) == (False, None)
        value = execute_spec(spec)
        cache.put(spec, value)
        hit, loaded = cache.get(spec)
        assert hit
        assert pickle.dumps(loaded) == pickle.dumps(value)
        assert cache.entries() == 1

    def test_entry_is_the_plain_pickle(self, tmp_path):
        """An entry file holds the report's pickle and nothing else,
        so one an earlier release wrote by default is a hit."""
        cache = ResultCache(tmp_path)
        spec = census_job(WORKLOAD, SIZE)
        value = execute_spec(spec)
        path = cache.put(spec, value)
        assert pickle.dumps(pickle.loads(path.read_bytes())) == (
            pickle.dumps(value)
        )
        path.write_bytes(pickle.dumps(value))
        hit, loaded = ResultCache(tmp_path).get(spec)
        assert hit
        assert pickle.dumps(loaded) == pickle.dumps(value)

    def test_version_salt_invalidates(self, tmp_path):
        spec = census_job(WORKLOAD, SIZE)
        old = ResultCache(tmp_path, salt="v-old")
        old.put(spec, execute_spec(spec))
        assert old.get(spec)[0]
        new = ResultCache(tmp_path, salt="v-new")
        assert new.get(spec) == (False, None)
        assert new.key(spec) != old.key(spec)

    def test_corrupt_entry_is_a_miss(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        spec = census_job(WORKLOAD, SIZE)
        cache.put(spec, execute_spec(spec))
        path = cache.path(spec)
        path.write_bytes(damage(path.read_bytes()))
        assert cache.get(spec) == (False, None)
        assert not path.exists()


class TestRunner:
    def test_duplicates_execute_once(self):
        runner = Runner()
        spec = census_job(WORKLOAD, SIZE)
        results = runner.run([spec, spec, spec])
        assert results[spec].total_blocks > 0
        assert runner.stats.requested == 3
        assert runner.stats.executed == 1

    def test_memo_spans_run_calls(self):
        runner = Runner()
        spec = census_job(WORKLOAD, SIZE)
        runner.run([spec])
        runner.run([spec])
        assert runner.stats.executed == 1
        assert runner.stats.memo_hits == 1

    def test_cache_round_trip(self, tmp_path):
        grid = _grid()
        first = Runner(cache=ResultCache(tmp_path))
        out1 = first.run(grid)
        assert first.stats.executed == len(grid)
        second = Runner(cache=ResultCache(tmp_path))
        out2 = second.run(grid)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(grid)
        assert second.stats.cache_fraction == 1.0
        for spec in grid:
            assert pickle.dumps(out1[spec]) == pickle.dumps(out2[spec])

    def test_parallel_matches_serial_byte_for_byte(self):
        grid = _grid()
        serial = Runner(jobs=1).run(grid)
        parallel = Runner(jobs=2).run(grid)
        for spec in grid:
            assert (
                pickle.dumps(serial[spec]) == pickle.dumps(parallel[spec])
            ), f"serial/parallel divergence for {spec.label()}"

    def test_progress_callback_sees_every_job(self, tmp_path):
        seen = []
        runner = Runner(
            cache=ResultCache(tmp_path),
            progress=lambda done, total, spec, source: seen.append(
                (done, total, source)
            ),
        )
        grid = _grid()
        runner.run(grid)
        assert [s[0] for s in seen] == list(range(1, len(grid) + 1))
        assert all(s[1] == len(grid) for s in seen)
        assert all(s[2] == "run" for s in seen)
        seen.clear()
        runner.run(grid)
        assert all(s[2] == "memo" for s in seen)


class TestCrossExperimentDedup:
    def test_figure9_table4_traffic_share_runs(self):
        runner = Runner()
        figure9.run(size=SIZE, workloads=[WORKLOAD], runner=runner)
        table4.run(size=SIZE, workloads=[WORKLOAD], runner=runner)
        traffic.run(size=SIZE, workloads=[WORKLOAD], runner=runner)
        # three experiments, one identical 3-policy timing grid
        assert runner.stats.executed == 3
        assert runner.stats.requested == 9
