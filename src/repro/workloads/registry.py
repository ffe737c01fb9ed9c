"""Workload registry: name -> generator class, plus the lookup helper."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import WorkloadError
from repro.workloads.appbt import Appbt
from repro.workloads.barnes import Barnes
from repro.workloads.base import Workload
from repro.workloads.dsmc import Dsmc
from repro.workloads.em3d import Em3d
from repro.workloads.moldyn import Moldyn
from repro.workloads.ocean import Ocean
from repro.workloads.raytrace import Raytrace
from repro.workloads.tomcatv import Tomcatv
from repro.workloads.unstructured import Unstructured

_REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (
        Appbt,
        Barnes,
        Dsmc,
        Em3d,
        Moldyn,
        Ocean,
        Raytrace,
        Tomcatv,
        Unstructured,
    )
}

#: Table 2 order — the order every figure and table prints rows in.
WORKLOAD_NAMES = (
    "appbt",
    "barnes",
    "dsmc",
    "em3d",
    "moldyn",
    "ocean",
    "raytrace",
    "tomcatv",
    "unstructured",
)


def available_workloads() -> List[str]:
    return list(WORKLOAD_NAMES)


def builder_version(name: str) -> Optional[int]:
    """The registered generator's ``builder_version`` for workload
    ``name``, or None when the registry does not know the name."""
    cls = _REGISTRY.get(name)
    return None if cls is None else cls.builder_version


def get_workload(name: str, size: str = "small", **overrides) -> Workload:
    """Instantiate a workload by name with a size preset.

    Args:
        name: one of :data:`WORKLOAD_NAMES`.
        size: "tiny" | "small" | "paper".
        **overrides: parameter overrides (``num_nodes=8``, ``seed=7``,
            ...).
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        )
    return cls.sized(size, **overrides)


def build_program_set(
    name: str, size: str = "small", cache=None, **overrides
):
    """Build a workload's :class:`ProgramSet`, optionally through a
    :class:`~repro.workloads.trace_cache.TraceCache` so repeat builds
    deserialize the persisted trace instead of re-synthesizing it."""
    from repro.workloads.trace_cache import cached_build

    return cached_build(get_workload(name, size, **overrides), cache)
