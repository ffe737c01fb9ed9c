"""The benchmark's workloads: which spec grid each resolves, and how.

Every workload is a closed loop with one client that submits a whole
grid through :class:`repro.runner.Runner` and waits for it. The grids
come from the experiment modules' own ``jobs()``; ``seed`` becomes the
workload generators' ``seed`` override (``None`` keeps the built-in
seed, which is exactly the paper grid).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

#: workload name -> why it exists (also printed by ``--catalog``)
WORKLOADS: Dict[str, str] = {
    "accuracy-sweep": (
        "fig6+fig7 grids at small, inline: the accuracy path (interleave, "
        "coherence, predictors) does nearly all the work"
    ),
    "timing-sweep": (
        "fig9+si-delay grids at small, inline: the timing engine, "
        "directory and network do nearly all the work"
    ),
    "fleet-publish": (
        "whole run-all grid at tiny through RemoteBackend with 2 workers: "
        "dedup, leasing, publish and coordination dominate"
    ),
}

#: local worker processes the fleet workload forks
FLEET_WORKERS = 2


def _experiments(workload: str) -> Tuple[Tuple[str, ...], str]:
    from repro.experiments import EXPERIMENTS

    if workload == "accuracy-sweep":
        return ("fig6", "fig7"), "small"
    if workload == "timing-sweep":
        return ("fig9", "si-delay"), "small"
    if workload == "fleet-publish":
        return tuple(EXPERIMENTS), "tiny"
    raise ValueError(f"unknown workload {workload!r}")


def _seeded(specs: List, seed: Optional[int]) -> List:
    if seed is None:
        return specs
    # specs that already pin a seed (the stability sweep) keep it
    return [
        spec if dict(spec.overrides).get("seed") is not None
        else dataclasses.replace(
            spec, overrides=dict(spec.overrides, seed=seed)
        )
        for spec in specs
    ]


def specs(workload: str, seed: Optional[int]) -> List:
    """The requested (not deduplicated) specs of one workload."""
    from repro.experiments import EXPERIMENTS

    names, size = _experiments(workload)
    out = []
    for name in names:
        out.extend(EXPERIMENTS[name].jobs(size=size))
    return _seeded(out, seed)


def paper_cells(workload: str, seed: Optional[int]):
    """The Figure 6 LTP specs and the Figure 9 ``(base, ltp)`` spec
    pairs this workload's grid contains (empty when it has none)."""
    from repro.experiments import figure6, figure9

    names, size = _experiments(workload)
    fig6 = []
    if "fig6" in names:
        fig6 = _seeded(
            [s for s in figure6.jobs(size=size) if s.policy.name == "ltp"],
            seed,
        )
    fig9 = []
    if "fig9" in names:
        cells = _seeded(figure9.jobs(size=size), seed)
        by_cell = {(s.workload, s.policy.name): s for s in cells}
        fig9 = [
            (by_cell[w, "base"], by_cell[w, "ltp"])
            for w, policy in by_cell if policy == "base"
        ]
    return fig6, fig9


def backend(workload: str):
    """The execution backend a workload's runner uses (``None`` lets
    the Runner pick its default, inline)."""
    if workload != "fleet-publish":
        return None
    from repro.runner import RemoteBackend

    return RemoteBackend(workers=FLEET_WORKERS)
