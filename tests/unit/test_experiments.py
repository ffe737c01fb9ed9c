"""Unit tests for the experiment harnesses and the CLI (at tiny size,
on a subset of workloads, to stay fast)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    ablations,
    figure6,
    figure7,
    figure8,
    figure9,
    table3,
    table4,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.common import make_policy_factory, workload_list

SUBSET = ["em3d", "tomcatv"]


class TestCommon:
    def test_all_policy_factories_construct(self):
        for name in ("base", "dsi", "last-pc", "ltp", "ltp-global"):
            policy = make_policy_factory(name)(0)
            assert policy.name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy_factory("magic")

    def test_workload_list_default_is_all_nine(self):
        assert len(workload_list(None)) == 9

    def test_workload_list_validates(self):
        with pytest.raises(ConfigurationError):
            workload_list(["em3d", "doom"])

    def test_workload_list_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            workload_list(["em3d", "tomcatv", "em3d"])


class TestFigure6:
    def test_runs_and_renders(self):
        res = figure6.run(size="tiny", workloads=SUBSET)
        text = res.render()
        assert "em3d" in text and "tomcatv" in text
        assert "Figure 6" in text

    def test_average_in_unit_interval(self):
        res = figure6.run(size="tiny", workloads=SUBSET)
        for policy in ("dsi", "last-pc", "ltp"):
            assert 0.0 <= res.average(policy) <= 1.0


class TestFigure7:
    def test_width_sweep(self):
        res = figure7.run(size="tiny", workloads=["em3d"], widths=(30, 6))
        assert set(res.reports["em3d"]) == {30, 6}
        assert "Figure 7" in res.render()


class TestFigure8:
    def test_both_organizations_present(self):
        res = figure8.run(size="tiny", workloads=["tomcatv"])
        assert "tomcatv" in res.per_block
        assert "tomcatv" in res.global_table
        assert "per-block" in res.render()


class TestTable3:
    def test_storage_rows(self):
        res = table3.run(size="tiny", workloads=SUBSET)
        for name in SUBSET:
            per_block, global_tab = res.storage[name]
            assert per_block.signature_bits == 13
            assert global_tab.signature_bits == 30
            assert per_block.entries_per_block > 0
        assert "Table 3" in res.render()


class TestFigure9AndTable4:
    def test_timing_experiments(self):
        res9 = figure9.run(size="tiny", workloads=["em3d"])
        assert res9.speedup("em3d", "ltp") > 0
        assert "Figure 9" in res9.render()
        res4 = table4.run(size="tiny", reuse=res9.reports)
        text = res4.render()
        assert "Table 4" in text and "em3d" in text


class TestAblations:
    def test_oracle_dominates(self):
        res = ablations.run(size="tiny", workloads=["em3d"])
        by = res.reports["em3d"]
        assert by["oracle"].predicted_fraction >= \
            by["ltp"].predicted_fraction
        assert "Ablations" in res.render()


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for cmd in ("fig6", "fig7", "fig8", "fig9", "table3", "table4",
                    "ablations", "all", "config", "workloads"):
            args = parser.parse_args(
                [cmd] if cmd in ("config",) else [cmd]
            )
            assert args.command == cmd

    def test_config_command(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "416" in out

    def test_experiment_command(self, capsys):
        assert main(["fig6", "--size", "tiny",
                     "--workloads", "em3d"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "em3d" in out and "raytrace" in out

    def test_run_all_command_caches(self, tmp_path, capsys):
        argv = ["run-all", "--size", "tiny", "--workloads", "em3d",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Figure 6" in first and "Figure 9" in first
        assert "Table 4" in first
        assert ", 0 from disk cache," in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        # every job of the repeat invocation is served from the cache
        assert "0 executed" in second
        assert "(100% served without execution)" in second

    def test_run_all_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["run-all", "--size", "tiny",
                     "--workloads", "em3d",
                     "--cache-dir", str(cache_dir),
                     "--no-cache"]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_experiment_command_with_cache(self, tmp_path, capsys):
        argv = ["fig9", "--size", "tiny", "--workloads", "em3d",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out


class TestProfileAndEngineCli:
    """The `profile` subcommand, and the absence of an engine choice."""

    def test_profile_prints_and_writes_bench_record(
        self, tmp_path, capsys
    ):
        import json

        out = tmp_path / "BENCH_profile_fig9.json"
        code = main([
            "profile", "fig9", "--size", "tiny",
            "--workloads", "em3d",
            "--top", "3", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "specs/s" in text
        assert "events by kind" in text
        record = json.loads(out.read_text())
        assert record["schema"] == "ltp-repro-bench/1"
        assert record["name"] == "profile_fig9"
        assert record["extra_info"]["specs"] > 0
        assert record["extra_info"]["event_counts"]["dir_arrive"] > 0
        assert record["extra_info"]["kinds"]["timing"]["specs"] > 0

    def test_profile_covers_accuracy_experiment(self, capsys):
        code = main([
            "profile", "fig6", "--size", "tiny", "--workloads", "em3d",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # the accuracy simulator's replay loop and its job-kind line
        assert "functional.py" in out and "(_replay)" in out
        assert "3 accuracy" in out
        assert "events by kind" not in out

    def test_profile_event_counts_are_the_oracles(self, tmp_path):
        """The per-kind counts `profile` reports are the oracle's,
        summed over the experiment's unique timing specs."""
        import json

        from repro.protocol.states import ProtocolVariant
        from repro.workloads import get_workload
        from tests.oracle import ReferenceTimingSimulator

        out = tmp_path / "BENCH_profile_fig9.json"
        code = main([
            "profile", "fig9", "--size", "tiny", "--workloads", "em3d",
            "--top", "1", "--json", str(out),
        ])
        assert code == 0
        expected: dict = {}
        specs = dict.fromkeys(
            EXPERIMENTS["fig9"].jobs(size="tiny", workloads=["em3d"])
        )
        for spec in specs:
            oracle = ReferenceTimingSimulator(
                spec.policy.build,
                config=spec.config,
                variant=ProtocolVariant[spec.variant.upper()],
                forwarding=spec.forwarding,
                si_fire_delay=spec.si_fire_delay,
            )
            oracle.run(get_workload(
                spec.workload, spec.size, **dict(spec.overrides)
            ).build())
            for kind, count in oracle.event_counts.items():
                if count:
                    expected[kind] = expected.get(kind, 0) + count
        record = json.loads(out.read_text())
        assert expected
        assert record["extra_info"]["event_counts"] == expected

    @pytest.mark.parametrize(
        "argv",
        [
            *([name] for name in EXPERIMENTS),
            ["all"],
            ["run-all"],
            ["worker", "--connect", "127.0.0.1:7470"],
            ["serve"],
            ["report"],
            ["profile", "fig9"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_engine_flag_is_rejected(self, argv, capsys):
        """One timing engine ships, so no subcommand selects one."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--engine", "fast"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
