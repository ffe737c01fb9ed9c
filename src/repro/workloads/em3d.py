"""em3d — electromagnetic wave propagation on a bipartite graph.

Paper behaviour to reproduce (Sections 5.1, 5.2, 5.4):

* "Em3d is the most well-behaved application ... computation proceeds
  in a loop and the majority of the blocks are only touched once prior
  to invalidation. Moreover, the sharing patterns are static and
  repetitive resulting in a high (> 95%) prediction accuracy in all the
  predictors."
* Figure 7: accuracy insensitive to signature size (single-touch
  traces).
* Table 4 / Figure 9: DSI's barrier-triggered bursts inflate directory
  queueing by three orders of magnitude (3283 cycles) and erase its
  advantage despite ~100% accuracy; LTP achieves the paper's best
  speedup class.

Structure: each node owns E-values and H-values. A *boundary* subset of
each array is consumed by ``degree`` fixed remote neighbours in the
opposite phase; the rest is node-private. Producers rewrite their
boundary values wholesale (a pure store — the em3d kernel recomputes
values from the other array), so producer re-fetches are WRITE fetches:
version-tagged DSI candidates, which is what makes DSI near-perfect
here. Consumers read each boundary block exactly once per iteration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class Em3dParams(WorkloadParams):
    """em3d dimensions (Table 2: 76800 nodes, degree 2, 15% remote)."""

    boundary_per_cpu: int = 12
    private_per_cpu: int = 6
    degree: int = 2
    work: int = 48


class Em3d(Workload):
    """Bipartite E/H phase computation with static remote dependencies."""

    name = "em3d"
    presets = {
        "tiny": Em3dParams(num_nodes=4, iterations=8, boundary_per_cpu=4,
                           private_per_cpu=2),
        "small": Em3dParams(num_nodes=16, iterations=30),
        "paper": Em3dParams(num_nodes=32, iterations=50,
                            boundary_per_cpu=24, private_per_cpu=12),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: Em3dParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        boundary = p.boundary_per_cpu
        degree = min(p.degree, n - 1)

        e_edge = space.region("e_boundary", n * boundary)
        h_edge = space.region("h_boundary", n * boundary)
        e_priv = space.region("e_private", n * p.private_per_cpu)
        h_priv = space.region("h_private", n * p.private_per_cpu)

        def owned(region, cpu: int, count: int, i: int) -> int:
            return region.block_addr(cpu * count + i)

        bid = 0
        for _ in range(p.iterations):
            # E phase: e = f(remote h); pure store of own boundary.
            for cpu in range(n):
                prog = programs[cpu]
                for d in range(1, degree + 1):
                    src = (cpu - d) % n
                    for i in range(boundary):
                        prog.access(
                            code.pc(f"compute_e.load_h{d}"),
                            owned(h_edge, src, boundary, i),
                            False, work=p.work,
                        )
                for i in range(boundary):
                    prog.access(
                        code.pc("compute_e.store_e"),
                        owned(e_edge, cpu, boundary, i),
                        True, work=p.work,
                    )
                for i in range(p.private_per_cpu):
                    prog.access(
                        code.pc("compute_e.store_private"),
                        owned(e_priv, cpu, p.private_per_cpu, i),
                        True, work=p.work,
                    )
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # H phase: h = f(remote e), symmetric.
            for cpu in range(n):
                prog = programs[cpu]
                for d in range(1, degree + 1):
                    src = (cpu + d) % n
                    for i in range(boundary):
                        prog.access(
                            code.pc(f"compute_h.load_e{d}"),
                            owned(e_edge, src, boundary, i),
                            False, work=p.work,
                        )
                for i in range(boundary):
                    prog.access(
                        code.pc("compute_h.store_h"),
                        owned(h_edge, cpu, boundary, i),
                        True, work=p.work,
                    )
                for i in range(p.private_per_cpu):
                    prog.access(
                        code.pc("compute_h.store_private"),
                        owned(h_priv, cpu, p.private_per_cpu, i),
                        True, work=p.work,
                    )
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
