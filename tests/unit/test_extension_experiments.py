"""Unit tests for the extension experiment modules and CLI export."""

import json

import pytest

from repro.experiments import forwarding, protocol_variants, traffic
from repro.experiments.cli import main


class TestForwardingExperiment:
    def test_runs_and_renders(self):
        res = forwarding.run(size="tiny", workloads=["em3d"])
        text = res.render()
        assert "em3d" in text and "Forwarding" in text

    def test_forwarding_helps_static_sharing(self):
        res = forwarding.run(size="tiny", workloads=["em3d"])
        assert res.speedup("em3d", "ltp+forward") >= \
            res.speedup("em3d", "ltp") - 0.02
        stats = res.reports["em3d"]["ltp+forward"].forwarding
        assert stats.forwards > 0
        assert stats.usefulness > 0.5


class TestVariantExperiment:
    def test_runs_and_renders(self):
        res = protocol_variants.run(size="tiny", workloads=["em3d"])
        assert "downgrade" in res.render().lower() or "down" in \
            res.render()

    def test_downgrade_reduces_invalidations(self):
        res = protocol_variants.run(size="tiny", workloads=["em3d"])
        row = res.rows["em3d"]
        assert row.invals_downgrade < row.invals_invalidate


class TestTrafficExperiment:
    def test_ltp_reduces_invalidation_messages(self):
        res = traffic.run(size="tiny", workloads=["em3d"])
        assert res.invalidation_reduction("em3d", "ltp") > 0.4
        assert "reduction" in res.render()


class TestCLIExport:
    def test_csv_and_json_written(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        rc = main([
            "fig6", "--size", "tiny", "--workloads", "em3d",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert rc == 0
        assert "workload" in csv_path.read_text().splitlines()[0]
        rows = json.loads(json_path.read_text())
        assert any(r["policy"] == "ltp" for r in rows)

    def test_export_skip_for_unsupported(self, tmp_path, capsys):
        rc = main([
            "table3", "--size", "tiny", "--workloads", "em3d",
            "--csv", str(tmp_path / "x.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "export skipped" in out

    def test_all_has_no_export_flags(self, tmp_path, capsys):
        """``all`` runs many experiments, and one file can hold only
        one experiment's rows, so it takes no export flags
        (``query --format csv|json`` exports any set of results)."""
        with pytest.raises(SystemExit) as exc:
            main(["all", "--size", "tiny", "--csv", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_new_experiments_reachable(self, capsys):
        for cmd in ("variants", "traffic"):
            rc = main([cmd, "--size", "tiny", "--workloads", "em3d"])
            assert rc == 0
