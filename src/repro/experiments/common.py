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

from typing import Callable, Iterable, List, Optional

from repro.core import (
    ConfidenceConfig,
    GlobalLTP,
    LastPCPredictor,
    NullPolicy,
    PerBlockLTP,
    SelfInvalidationPolicy,
    SignatureEncoder,
    TruncatedAddEncoder,
)
from repro.dsi import DSIPolicy
from repro.errors import ConfigurationError
from repro.runner import Runner
from repro.workloads import WORKLOAD_NAMES

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

#: canonical policy names used on the CLI and in reports
POLICIES = ("base", "dsi", "last-pc", "ltp", "ltp-global")


def use_runner(runner: Optional[Runner]) -> Runner:
    """The experiment-module default: a serial, uncached runner, unless
    the caller supplies a shared one."""
    return runner if runner is not None else Runner()


def make_policy_factory(
    name: str,
    bits: int = 30,
    confidence: Optional[ConfidenceConfig] = None,
    encoder: Optional[SignatureEncoder] = None,
) -> PolicyFactory:
    """Build a per-node policy factory by canonical name.

    Ad-hoc exploration helper (examples, tests). The experiment
    modules themselves declare policies as
    :class:`~repro.runner.PolicySpec` values so runs are hashable and
    cacheable.
    """
    if name == "base":
        return lambda node: NullPolicy()
    if name == "dsi":
        return lambda node: DSIPolicy()
    if name == "last-pc":
        return lambda node: LastPCPredictor(bits=bits, confidence=confidence)
    enc = encoder or TruncatedAddEncoder(bits)
    if name == "ltp":
        return lambda node: PerBlockLTP(enc, confidence)
    if name == "ltp-global":
        return lambda node: GlobalLTP(enc, confidence)
    raise ConfigurationError(
        f"unknown policy {name!r}; choose from {POLICIES}"
    )


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
