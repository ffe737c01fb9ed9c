"""Pinned builds of every trace the ``run-all`` grid uses.

Every workload fingerprint of the grid (the nine workloads at their
preset and at each seed of the stability sweep) is built and hashed:
sha256 of a canonical JSON rendering that lists, per node, each step's
class name and field values in order, plus the position of the first
step of the build that is the same object. So the digest moves when a
step changes and also when the sharing of equal steps changes. The
digests, keyed by ``Workload.fingerprint()``, live in
``data/trace_digests.json`` for ``--size tiny`` and in
``data/trace_digests_small.json`` for ``--size small``. Tier-1 checks
the tiny grid; CI's ``small-grid-digests`` job checks the small one::

    PYTHONPATH=src python tests/integration/test_trace_digests.py \
        --size small --check

A generator change that moves a build must bump that workload's
``builder_version`` (which changes its fingerprint). Re-record after
such a change::

    PYTHONPATH=src python tests/integration/test_trace_digests.py
    PYTHONPATH=src python tests/integration/test_trace_digests.py \
        --size small
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.experiments import EXPERIMENTS
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from repro.workloads import WORKLOAD_NAMES, get_workload

DATA = Path(__file__).resolve().parent / "data"
#: the pinned digests of each grid size
DIGESTS = {
    "tiny": DATA / "trace_digests.json",
    "small": DATA / "trace_digests_small.json",
}


def render(programs) -> list:
    """A JSON-ready rendering of a build: its steps and their sharing."""
    first: Dict[int, int] = {}
    nodes = []
    position = 0
    for node in range(programs.num_nodes):
        steps = []
        for step in programs.programs[node].steps:
            steps.append([
                type(step).__name__,
                [getattr(step, name) for name in step.__slots__],
                first.setdefault(id(step), position),
            ])
            position += 1
        nodes.append([node, steps])
    return [programs.name, programs.num_nodes, programs.shared_blocks, nodes]


def digest(programs) -> str:
    text = json.dumps(render(programs), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_workloads(size: str = "tiny") -> List:
    """One workload per unique trace fingerprint of the grid at ``size``."""
    keys = []
    for module in EXPERIMENTS.values():
        keys.extend(
            (spec.workload, spec.size, spec.overrides)
            for spec in module.jobs(size=size)
        )
    return [
        get_workload(name, wsize, **dict(overrides))
        for name, wsize, overrides in dict.fromkeys(keys)
    ]


def compute(size: str = "tiny") -> Tuple[Dict[str, str], Dict[str, str]]:
    """(fingerprint -> build digest, fingerprint -> label)."""
    digests, labels = {}, {}
    for workload in grid_workloads(size):
        key = workload.fingerprint()
        digests[key] = digest(workload.build())
        labels[key] = f"{workload.name} seed={workload.params.seed}"
    return digests, labels


def moved(expected: Dict[str, str], actual: Dict[str, str]) -> List[str]:
    """Fingerprints whose digest differs, or that only one side has."""
    return sorted(
        k for k in set(expected) | set(actual)
        if expected.get(k) != actual.get(k)
    )


def test_builds_match_pinned_digests():
    expected = json.loads(DIGESTS["tiny"].read_text())
    actual, labels = compute()
    assert len(actual) == 45
    changed = moved(expected, actual)
    assert not changed, (
        f"{len(changed)} of {len(expected)} pinned builds moved:\n"
        + "\n".join(
            f"  {labels.get(k, 'no longer in the grid')}: {k}"
            for k in changed
        )
    )


def test_rendering_records_sharing():
    shared = Access(1, 64, False, 2)
    a = ProgramSet("t", 2, {
        0: Program(0, [shared, Barrier(1)]),
        1: Program(1, [shared, Barrier(1)]),
    })
    b = ProgramSet("t", 2, {
        0: Program(0, [Access(1, 64, False, 2), Barrier(1)]),
        1: Program(1, [Access(1, 64, False, 2), Barrier(1)]),
    })
    assert render(a)[3] == [
        [0, [["Access", [1, 64, False, 2], 0], ["Barrier", [1], 1]]],
        [1, [["Access", [1, 64, False, 2], 0], ["Barrier", [1], 3]]],
    ]
    assert digest(a) != digest(b)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_build_constructs_each_distinct_step_once(monkeypatch, name):
    """The builders construct each distinct step of a build once,
    counted per step class."""
    made: Counter = Counter()
    for cls in (Access, Barrier, LockAcquire, LockRelease):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    programs = get_workload(name, "tiny").build()
    distinct = {
        (type(step), tuple(getattr(step, f) for f in step.__slots__))
        for program in programs.programs.values()
        for step in program.steps
    }
    assert made == Counter(cls.__name__ for cls, _ in distinct)


def main(argv=None) -> int:
    """Re-record the pinned build digests of one grid size, or with
    ``--check`` compare against them and exit 1 if any moved."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--size", choices=sorted(DIGESTS), default="tiny")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    path = DIGESTS[args.size]
    old = json.loads(path.read_text()) if path.is_file() else {}
    new, labels = compute(args.size)
    if not args.check:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        if not old:
            print(f"recorded {len(new)} digests")
            return 0
    changed = moved(old, new)
    print(f"{len(changed)} of {len(new)} builds moved")
    for key in changed:
        print(f"  moved: {labels.get(key, 'no longer in the grid')}: {key}")
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
