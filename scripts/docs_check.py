"""CI guard: the docs must not rot.

Checks, for ``README.md`` and every ``docs/*.md``:

1. every relative markdown link ``[text](target)`` resolves to a file
   in the repo;
2. every ``#anchor`` in those links matches a heading in the target
   file (GitHub slugification: lowercase, punctuation stripped,
   spaces to hyphens, ``-N`` suffixes for duplicates);
3. every backticked repo path (``src/...``, ``tests/...``,
   ``scripts/...``, ``benchmarks/...``, ``docs/...``,
   ``.github/...``) names a file or directory that exists — so a
   renamed module breaks the docs job, not a reader;
4. every job id under ``jobs:`` in ``.github/workflows/ci.yml`` is
   backticked in the "CI jobs" section of ``docs/operations.md``, the
   one place the jobs are listed — so an added or renamed job breaks
   the docs job until the list says what it does;
5. every metric registered under ``src/repro`` through ``counter(``,
   ``gauge(`` or ``histogram(`` has a row (a table line whose first
   cell is the backticked name) in the "Metric catalog" section of
   ``docs/observability.md``, and every row there names a registered
   metric — so an added, renamed or deleted series breaks the docs
   job until the catalog says what it counts.

Run as ``python scripts/docs_check.py [REPO_ROOT]``; exits non-zero
listing every broken reference.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: backticked tokens that claim to be repo paths
REPO_PATH = re.compile(
    r"^(?:src|tests|scripts|benchmarks|docs|\.github)/[\w./-]+$"
)
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
#: a job id: a key one level under the workflow's ``jobs:``
JOB = re.compile(r"^(\s+)([\w-]+):\s*(?:#.*)?$")
WORKFLOW = ".github/workflows/ci.yml"
#: the file and heading that list every CI job
CI_SECTION = ("docs/operations.md", "CI jobs")
#: a metric registered in the package, by its literal name
METRIC = re.compile(r"\b(?:counter|gauge|histogram)\(\s*[\"'](\w+)[\"']")
#: a catalog row: a table line whose first cell is a backticked name
CATALOG_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|", re.MULTILINE)
#: the file and heading that list every metric
CATALOG_SECTION = ("docs/observability.md", "Metric catalog")


def slugify(heading: str) -> str:
    """GitHub's anchor id for a heading text."""
    text = re.sub(r"[^\w\s-]", "", heading.lower())
    return text.replace(" ", "-")


def anchors(markdown: str) -> set:
    seen: dict = {}
    ids = set()
    for match in HEADING.finditer(FENCE.sub("", markdown)):
        slug = slugify(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        ids.add(slug if count == 0 else f"{slug}-{count}")
    return ids


def workflow_jobs(workflow: str) -> list:
    """The job ids under a workflow's top-level ``jobs:`` key."""
    jobs, inside, indent = [], False, None
    for line in workflow.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not line[0].isspace():
            inside = line.rstrip() == "jobs:"
            continue
        match = JOB.match(line)
        if inside and match:
            indent = indent or match.group(1)
            if match.group(1) == indent:
                jobs.append(match.group(2))
    return jobs


def section(markdown: str, title: str):
    """The text under heading ``title`` up to the next heading of the
    same or a higher level, or None when there is no such heading."""
    prose = FENCE.sub("", markdown)
    headings = list(HEADING.finditer(prose))
    for index, match in enumerate(headings):
        if match.group(2) != title:
            continue
        level = len(match.group(1))
        end = next(
            (h.start() for h in headings[index + 1:]
             if len(h.group(1)) <= level),
            len(prose),
        )
        return prose[match.end():end]
    return None


def check_ci_jobs(root: Path) -> list:
    doc, title = CI_SECTION
    body = section((root / doc).read_text(), title)
    if body is None:
        return [f"{doc}: no \"{title}\" section to list the CI jobs"]
    listed = set(CODE_SPAN.findall(body))
    return [
        f"{doc}#{slugify(title)}: CI job `{job}` of {WORKFLOW} "
        "is not listed"
        for job in workflow_jobs((root / WORKFLOW).read_text())
        if job not in listed
    ]


def check_metric_catalog(root: Path) -> list:
    doc, title = CATALOG_SECTION
    body = section((root / doc).read_text(), title)
    if body is None:
        return [f"{doc}: no \"{title}\" section to list the metrics"]
    rows = set(CATALOG_ROW.findall(body))
    registered = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        registered.update(METRIC.findall(path.read_text()))
    where = f"{doc}#{slugify(title)}"
    return [
        f"{where}: metric `{name}` is registered but has no row"
        for name in sorted(registered - rows)
    ] + [
        f"{where}: row `{name}` names no registered metric"
        for name in sorted(rows - registered)
    ]


def check_file(path: Path, root: Path) -> list:
    errors = []
    text = path.read_text()
    prose = FENCE.sub("", text)

    for match in LINK.finditer(prose):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        dest = path if not file_part else (
            path.parent / file_part
        ).resolve()
        if not dest.exists():
            errors.append(f"{path.relative_to(root)}: broken link "
                          f"-> {target}")
            continue
        if anchor:
            if dest.suffix != ".md":
                continue
            if anchor not in anchors(dest.read_text()):
                errors.append(
                    f"{path.relative_to(root)}: missing anchor "
                    f"#{anchor} in {dest.relative_to(root)}"
                )

    for match in CODE_SPAN.finditer(prose):
        token = match.group(1)
        if REPO_PATH.match(token) and not (root / token).exists():
            errors.append(f"{path.relative_to(root)}: backticked "
                          f"path does not exist -> {token}")
    return errors


def main(argv) -> int:
    root = Path(argv[0]).resolve() if argv else (
        Path(__file__).resolve().parent.parent
    )
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    errors = []
    for path in files:
        if not path.exists():
            errors.append(f"missing documentation file: {path}")
            continue
        errors.extend(check_file(path, root))
    errors.extend(check_ci_jobs(root))
    errors.extend(check_metric_catalog(root))
    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for line in errors:
            print(f"  {line}")
        return 1
    print(f"docs check OK: {len(files)} file(s), links, anchors, and "
          f"source paths all resolve; every CI job and metric is "
          f"listed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
