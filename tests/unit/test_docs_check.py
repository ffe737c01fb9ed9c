"""The docs guard's listing rules, on small hand-written trees: every
job of the workflow is listed in the runbook's "CI jobs" section, and
the observability doc's "Metric catalog" has one row per registered
metric."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "docs_check", ROOT / "scripts" / "docs_check.py"
)
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)

WORKFLOW = """\
name: CI

on:
  push:
    branches: [main]

jobs:
  lint:
    name: ruff
    steps:
      - run: ruff check .

  # tier-1
  tests:
    strategy:
      matrix:
        python-version: ["3.10", "3.12"]
"""


def _tree(tmp_path, runbook):
    workflow = tmp_path / docs_check.WORKFLOW
    workflow.parent.mkdir(parents=True)
    workflow.write_text(WORKFLOW)
    doc = tmp_path / docs_check.CI_SECTION[0]
    doc.parent.mkdir()
    doc.write_text(runbook)
    return tmp_path


def test_workflow_jobs_are_the_keys_one_level_under_jobs():
    assert docs_check.workflow_jobs(WORKFLOW) == ["lint", "tests"]


def test_a_job_missing_from_the_section_fails(tmp_path):
    """A job named only outside the section (here: one renamed in the
    workflow and mentioned elsewhere) is not listed."""
    root = _tree(tmp_path, (
        "# Operations\n\n## CI jobs\n\n- `lint`: ruff.\n"
        "- `pytest`: tier-1.\n\n## Other\n\nThe `tests` job.\n"
    ))
    assert docs_check.check_ci_jobs(root) == [
        "docs/operations.md#ci-jobs: CI job `tests` of "
        ".github/workflows/ci.yml is not listed"
    ]


def test_a_complete_list_passes_and_a_missing_section_fails(tmp_path):
    root = _tree(
        tmp_path, "## CI jobs\n\n- `lint`: ruff.\n- `tests`: tier-1.\n"
    )
    assert docs_check.check_ci_jobs(root) == []
    (root / docs_check.CI_SECTION[0]).write_text("## Jobs\n\n`lint`\n")
    assert docs_check.check_ci_jobs(root) == [
        'docs/operations.md: no "CI jobs" section to list the CI jobs'
    ]


SOURCE = """\
import repro.telemetry as _tm

_M_RUNS = _tm.counter("repro_demo_runs_total")
_M_WAIT = _tm.histogram(
    "repro_demo_wait_seconds"
)
_G_LIVE = _tm.gauge('repro_demo_live')
started = time.perf_counter()
"""

CATALOG = """\
# Observability

## Metric catalog

### Demo

| metric | type | labels | meaning |
| --- | --- | --- | --- |
| `repro_demo_runs_total` | counter | | runs |
| `repro_demo_wait_seconds` | histogram | | waits |
{extra}
## Scrape endpoint

| `repro_demo_elsewhere_total` | counter | | outside the section |
"""


def _catalog_tree(tmp_path, extra=""):
    module = tmp_path / "src" / "repro" / "demo.py"
    module.parent.mkdir(parents=True)
    module.write_text(SOURCE)
    doc = tmp_path / docs_check.CATALOG_SECTION[0]
    doc.parent.mkdir()
    doc.write_text(CATALOG.format(extra=extra))
    return tmp_path


def test_a_registered_metric_missing_from_the_catalog_fails(tmp_path):
    """The gauge has no row in the section (a row after the section's
    end does not count), whichever quotes and line breaks register
    it."""
    root = _catalog_tree(tmp_path)
    assert docs_check.check_metric_catalog(root) == [
        "docs/observability.md#metric-catalog: metric "
        "`repro_demo_live` is registered but has no row"
    ]


def test_a_stale_catalog_row_fails(tmp_path):
    root = _catalog_tree(tmp_path, extra=(
        "| `repro_demo_live` | gauge | | live |\n"
        "| `repro_demo_gone_total` | counter | | renamed away |\n"
    ))
    assert docs_check.check_metric_catalog(root) == [
        "docs/observability.md#metric-catalog: row "
        "`repro_demo_gone_total` names no registered metric"
    ]


def test_a_matching_catalog_passes(tmp_path):
    root = _catalog_tree(
        tmp_path, extra="| `repro_demo_live` | gauge | | live |\n"
    )
    assert docs_check.check_metric_catalog(root) == []
