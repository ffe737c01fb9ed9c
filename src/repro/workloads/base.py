"""Workload framework: parameters, sizes, and the generator ABC."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from typing import Dict, List

from repro.errors import WorkloadError
from repro.trace.program import (
    Program,
    ProgramBuilder,
    ProgramSet,
    Step,
    validate_once,
)
from repro.workloads.address_space import AddressSpace, CodeMap

#: Size presets scale iteration counts and data dimensions. "tiny" keeps
#: unit tests fast; "small" is the default experiment size; "paper"
#: approaches Table 2's inputs (slow in pure Python — used by the
#: benchmark harness when given time).
SIZES = ("tiny", "small", "paper")


@dataclass(frozen=True)
class WorkloadParams:
    """Parameters common to every workload.

    Attributes:
        num_nodes: processor count (paper: 32).
        iterations: outer time-step/iteration count.
        scale: multiplier on the workload's data dimensions.
        seed: RNG seed for any randomized structure (mesh wiring, tree
            mutation); two builds with equal params are identical.
        work: compute cycles charged before each access in the timing
            model (scales computation/communication ratio).
    """

    num_nodes: int = 32
    iterations: int = 12
    scale: float = 1.0
    seed: int = 1734
    work: int = 32

    def scaled(self, quantity: int, minimum: int = 1) -> int:
        """Apply the scale factor to a data dimension."""
        return max(minimum, int(round(quantity * self.scale)))


class Workload:
    """Base class for the nine benchmark generators.

    Subclasses set ``name``, the per-size parameter presets, and
    implement :meth:`_generate`, which writes each node's steps through
    that node's :class:`~repro.trace.program.ProgramBuilder`
    (``access``, ``barrier``, ``acquire``, ``release``).
    """

    name: str = "workload"
    #: generator-code version: bump in a subclass whenever its
    #: ``_generate`` changes the emitted steps, so persisted traces
    #: (:mod:`repro.workloads.trace_cache`) built by the old generator
    #: are orphaned instead of served stale
    builder_version: int = 1
    #: per-size parameter presets; subclasses override entries
    presets: Dict[str, WorkloadParams] = {
        "tiny": WorkloadParams(num_nodes=4, iterations=6, scale=0.1),
        "small": WorkloadParams(num_nodes=16, iterations=12, scale=0.5),
        "paper": WorkloadParams(num_nodes=32, iterations=24, scale=1.0),
    }

    def __init__(self, params: WorkloadParams) -> None:
        if params.num_nodes < 2:
            raise WorkloadError(
                f"{self.name}: need >= 2 nodes for sharing, got "
                f"{params.num_nodes}"
            )
        if params.iterations < 1:
            raise WorkloadError(f"{self.name}: need >= 1 iteration")
        self.params = params

    @classmethod
    def sized(cls, size: str = "small", **overrides) -> "Workload":
        """Build a workload from a size preset, optionally overriding
        individual parameters (e.g. ``num_nodes=8``)."""
        if size not in cls.presets:
            raise WorkloadError(
                f"unknown size {size!r}; choose from {sorted(cls.presets)}"
            )
        params = cls.presets[size]
        if overrides:
            params = replace(params, **overrides)
        return cls(params)

    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable identity of the exact ``ProgramSet`` that
        :meth:`build` returns: workload name, ``builder_version``, and
        the full parameter set (size presets, seed and overrides are
        already folded into ``self.params``). Equal fingerprints mean
        byte-identical builds — the trace-cache content address."""
        return json.dumps(
            {
                "workload": self.name,
                "builder": self.builder_version,
                "params": asdict(self.params),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def build(self) -> ProgramSet:
        """Generate the per-node programs for this parameterization.

        :meth:`_generate` writes through one
        :class:`~repro.trace.program.ProgramBuilder` per node, and all of
        them share one table that lives for this call only: each
        distinct step is constructed once and equal steps of the build
        are one object, so the returned ProgramSet and its steps are
        never to be mutated.
        """
        n = self.params.num_nodes
        table: Dict[tuple, Step] = {}
        builders = {node: ProgramBuilder(table) for node in range(n)}
        space = AddressSpace()
        code = CodeMap()
        rng = random.Random(self.params.seed)
        self._generate(builders, space, code, rng)
        program_set = ProgramSet(
            self.name,
            n,
            {node: Program(node, b.steps) for node, b in builders.items()},
        )
        validate_once(program_set)
        return program_set

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def partition(items: int, nodes: int) -> List[range]:
        """Split ``items`` into ``nodes`` contiguous, balanced ranges."""
        base, extra = divmod(items, nodes)
        ranges = []
        start = 0
        for node in range(nodes):
            size = base + (1 if node < extra else 0)
            ranges.append(range(start, start + size))
            start += size
        return ranges
