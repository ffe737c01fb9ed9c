"""Shared plumbing for the experiment modules.

Every experiment expresses its measurement grid as a list of
:class:`~repro.runner.JobSpec`s and submits it through a
:class:`~repro.runner.Runner` (see :func:`use_runner`). Modules expose:

* ``jobs(size=..., workloads=...)`` — the specs the experiment needs;
* ``run(size=..., workloads=..., runner=...)`` — submit the specs and
  assemble the result object. Passing a shared runner (as ``repro
  run-all`` does) deduplicates overlapping grids across experiments
  and serves repeats from its cache.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.runner import Runner
from repro.workloads import WORKLOAD_NAMES


def use_runner(runner: Optional[Runner]) -> Runner:
    """The experiment-module default: a serial, uncached runner, unless
    the caller supplies a shared one."""
    return runner if runner is not None else Runner()


def workload_list(workloads: Optional[Iterable[str]]) -> List[str]:
    if workloads is None:
        return list(WORKLOAD_NAMES)
    names = list(workloads)
    seen = set()
    for name in names:
        if name not in WORKLOAD_NAMES:
            raise ConfigurationError(
                f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
            )
        if name in seen:
            # a duplicate would double-count the workload in every
            # experiment average and double-submit its runner jobs
            raise ConfigurationError(
                f"duplicate workload {name!r} in {names}"
            )
        seen.add(name)
    return names
