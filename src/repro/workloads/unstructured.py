"""unstructured — CFD over an unstructured mesh.

Paper behaviour to reproduce (Section 5.1):

* "In unstructured, the main loop iterates over data values computing a
  threshold" and edge computations read-modify-write both endpoints'
  data with the same instructions — Last-PC dies to instruction reuse;
  LTP exceeds 95% because the (seeded, then frozen) edge list makes the
  per-block PC sequences identical every iteration.
* DSI manages only 38%: the edge phase's read-then-upgrade accesses hit
  the migratory exclusion, so only the threshold phase's read-fetched
  copies (whose versions moved) become candidates.

Structure: a random-but-fixed edge list over mesh points, one block per
point. Each iteration runs an edge sweep (RMW both endpoints through
one set of loop instructions, endpoints frequently remote) and then a
read-only threshold sweep over the node's own points (two loads per
point through one instruction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class UnstructuredParams(WorkloadParams):
    """unstructured dimensions (Table 2: mesh 2K, 30 iterations)."""

    points_per_cpu: int = 10
    edges_per_cpu: int = 14
    #: fraction of a cpu's edges with a remote endpoint
    remote_fraction: float = 0.4
    #: fixed remote points each cpu gathers read-only per iteration
    gather_points: int = 8
    work: int = 64


class Unstructured(Workload):
    """Edge sweeps with migratory RMW endpoints + threshold reductions."""

    name = "unstructured"
    presets = {
        "tiny": UnstructuredParams(num_nodes=4, iterations=8,
                                   points_per_cpu=4, edges_per_cpu=6),
        "small": UnstructuredParams(num_nodes=16, iterations=30),
        "paper": UnstructuredParams(num_nodes=32, iterations=30,
                                    points_per_cpu=20, edges_per_cpu=28),
    }

    def _build_edges(
        self, rng: random.Random
    ) -> Dict[int, List[Tuple[int, int]]]:
        """One fixed edge list per cpu; endpoints are global point ids.

        The wiring is random once, then identical every iteration — the
        repetition LTP's trace correlation depends on.
        """
        p: UnstructuredParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        per_cpu: Dict[int, List[Tuple[int, int]]] = {}
        for cpu in range(n):
            def own(cpu=cpu):
                return cpu * p.points_per_cpu + rng.randrange(
                    p.points_per_cpu
                )
            edges = []
            for _ in range(p.edges_per_cpu):
                a = own()
                if rng.random() < p.remote_fraction:
                    other = rng.randrange(n - 1)
                    if other >= cpu:
                        other += 1
                    b = other * p.points_per_cpu + rng.randrange(
                        p.points_per_cpu
                    )
                else:
                    b = own()
                edges.append((a, b))
            per_cpu[cpu] = edges
        return per_cpu

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: UnstructuredParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        data = space.region("point_data", n * p.points_per_cpu)
        edges = self._build_edges(rng)

        ld_a = code.pc("edge_sweep.load_a")
        st_a = code.pc("edge_sweep.store_a")
        ld_b = code.pc("edge_sweep.load_b")
        st_b = code.pc("edge_sweep.store_b")
        ld_t = code.pc("threshold.load")
        ld_g = code.pc("gather.load_remote")

        # Fixed remote gather sets (read-only consumers of other cpus'
        # points: the share of invalidations DSI *can* predict).
        gather: Dict[int, List[int]] = {}
        for cpu in range(n):
            pool = [
                pt
                for pt in range(n * p.points_per_cpu)
                if pt // p.points_per_cpu != cpu
            ]
            gather[cpu] = rng.sample(
                pool, min(p.gather_points, len(pool))
            )

        bid = 0
        for _ in range(p.iterations):
            # Edge sweep: RMW both endpoints of every owned edge.
            for cpu in range(n):
                prog = programs[cpu]
                for a, b in edges[cpu]:
                    prog.access(ld_a, data.block_addr(a), False, work=p.work)
                    prog.access(st_a, data.block_addr(a), True, work=p.work)
                    prog.access(ld_b, data.block_addr(b), False, work=p.work)
                    prog.access(st_b, data.block_addr(b), True, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Threshold sweep: read-only pass over own points (twice
            # per point through the same load — packed-value reuse),
            # plus the remote gather (twice per point, same load): pure
            # read consumers whose versions the edge sweep moved.
            for cpu in range(n):
                prog = programs[cpu]
                for i in range(p.points_per_cpu):
                    point = cpu * p.points_per_cpu + i
                    for _ in range(2):
                        prog.access(ld_t, data.block_addr(point),
                                    False, work=p.work)
                for point in gather[cpu]:
                    for _ in range(2):
                        prog.access(ld_g, data.block_addr(point),
                                    False, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
