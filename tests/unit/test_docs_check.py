"""The docs guard's CI-job rule: every job of the workflow is listed in
the runbook's "CI jobs" section, on small hand-written trees."""

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
