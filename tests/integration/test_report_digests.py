"""Pinned outputs of every job kind.

Every spec in the ``run-all`` grid (accuracy, oracle, census and
timing, both protocol variants) is executed and its report hashed:
sha256 of a canonical JSON rendering that does not depend on the
interpreter version (dataclass fields in declaration order, ``None``
kept, floats by ``repr``, enums by value, mappings and sets sorted).
The digests, keyed by ``JobSpec.canonical()``, live in
``data/report_digests.json`` for ``--size tiny`` and in
``data/report_digests_small.json`` for ``--size small``. A change to
the interleaver, the coherence engine, the accuracy simulator, the
timing engine or any policy that moves a number fails the check and
names the specs that moved. Tier-1 checks the tiny grid (about 2 s);
the small grid takes about a minute, so CI's ``small-grid-digests``
job checks it instead::

    PYTHONPATH=src python tests/integration/test_report_digests.py \
        --size small --check

Regenerate after an intended change (and say in the change which
numbers moved and why)::

    PYTHONPATH=src python tests/integration/test_report_digests.py
    PYTHONPATH=src python tests/integration/test_report_digests.py \
        --size small
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

DATA = Path(__file__).resolve().parent / "data"
#: the pinned digests of each grid size
DIGESTS = {
    "tiny": DATA / "report_digests.json",
    "small": DATA / "report_digests_small.json",
}


def canonical(value: Any) -> Any:
    """A JSON-ready rendering of a report, identical on Python 3.10-3.12."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [f.name, canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0]))
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot render {type(value).__name__}")


def digest(report: Any) -> str:
    text = json.dumps(canonical(report), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_specs(size: str = "tiny") -> List:
    """The unique specs of the ``run-all`` grid at ``size``."""
    from repro.experiments import EXPERIMENTS

    specs = []
    for module in EXPERIMENTS.values():
        specs.extend(module.jobs(size=size))
    return list(dict.fromkeys(specs))


def compute(size: str = "tiny") -> Tuple[Dict[str, str], Dict[str, str]]:
    """(canonical spec -> report digest, canonical spec -> label)."""
    from repro.runner.runner import execute_spec

    digests, labels = {}, {}
    for spec in grid_specs(size):
        key = spec.canonical()
        digests[key] = digest(execute_spec(spec))
        labels[key] = spec.label()
    return digests, labels


def moved(expected: Dict[str, str], actual: Dict[str, str]) -> List[str]:
    """Spec keys whose digest differs, or that only one side has."""
    return sorted(
        k for k in set(expected) | set(actual)
        if expected.get(k) != actual.get(k)
    )


def test_reports_match_pinned_digests():
    expected = json.loads(DIGESTS["tiny"].read_text())
    actual, labels = compute()
    assert len(actual) == 243
    changed = moved(expected, actual)
    assert not changed, (
        f"{len(changed)} of {len(expected)} pinned reports "
        f"moved:\n" + "\n".join(
            f"  {labels.get(k, 'no longer in the grid')}: {k}"
            for k in changed
        )
    )


def test_rendering_is_order_and_type_stable():
    @dataclasses.dataclass
    class Row:
        b: float
        a: Any = None

    class Color(enum.Enum):
        RED = "red"

    assert canonical(Row(0.1, {Color.RED: {2, 1}, "x": None})) == [
        "Row", ["b", "0.1"], ["a", [["red", [1, 2]], ["x", None]]],
    ]


def main(argv=None) -> int:
    """Re-record the pinned digests of one grid size, or with
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
    print(f"{len(changed)} of {len(new)} specs moved")
    for key in changed:
        print(f"  moved: {labels.get(key, key + ' (no longer in the grid)')}")
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
