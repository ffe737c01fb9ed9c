"""barnes — Barnes-Hut N-body simulation (SPLASH-2).

Paper behaviour to reproduce (Section 5.1):

* "In barnes, the application's main data structure (i.e., an octree)
  changes dynamically and frequently. Due to frequent allocation/
  deallocation of dynamic memory, the last-touch signatures associated
  with blocks become obsolete ... LTP and Last-PC achieve accuracies of
  22% and 20% respectively."
* "Because barnes is lock-intensive, DSI manages to predict
  invalidations after a critical section achieving an accuracy of 42%"
  — versioning keys on block identity, not instruction traces, so the
  re-wired tree does not hurt it.
* Table 4: long queueing delays from DSI's bursts offset its gains.

Structure per iteration: a tree-build phase where each node, under a
region lock, rewrites a *randomly re-drawn* subset of tree-cell blocks
with a per-iteration random number of stores (the allocator re-using
memory for different cells — traces never stabilize); then a force
phase where each node reads a random subset of tree cells. A small
stable particle-array exchange (fixed producer/consumer, distinct PCs)
provides the ~20% of invalidations the trace predictors do learn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class BarnesParams(WorkloadParams):
    """barnes dimensions (Table 2: 4K particles, 21 iterations)."""

    tree_blocks: int = 48
    cells_written_per_cpu: int = 5
    cells_read_per_cpu: int = 8
    stable_blocks_per_cpu: int = 2
    region_locks: int = 4


class Barnes(Workload):
    """Mutating octree under locks + a small stable particle exchange."""

    name = "barnes"
    presets = {
        "tiny": BarnesParams(num_nodes=4, iterations=8, tree_blocks=12,
                             cells_written_per_cpu=2,
                             cells_read_per_cpu=3,
                             stable_blocks_per_cpu=1, region_locks=2),
        "small": BarnesParams(num_nodes=16, iterations=30),
        "paper": BarnesParams(num_nodes=32, iterations=21,
                              tree_blocks=96, cells_written_per_cpu=8,
                              cells_read_per_cpu=12,
                              stable_blocks_per_cpu=3, region_locks=8),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: BarnesParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        tree = space.region("tree_cells", p.tree_blocks)
        stable = space.region("particles", n * p.stable_blocks_per_cpu)
        locks = space.region("region_locks", p.region_locks)

        ld_cell_b = code.pc("treebuild.load_cell")
        st_cell = code.pc("treebuild.store_cell")
        ld_cell = code.pc("force.load_cell")
        st_part = code.pc("advance.store_particle")
        ld_part = code.pc("force.load_particle")
        lock_pc = code.pc("treebuild.lock_testset")
        spin_pc = code.pc("treebuild.lock_spin")
        unlock_pc = code.pc("treebuild.unlock")

        def stable_addr(cpu: int, i: int) -> int:
            return stable.block_addr(cpu * p.stable_blocks_per_cpu + i)

        bid = 0
        for _ in range(p.iterations):
            # Tree build: random cells, random store counts, under a
            # region lock — the dynamic reallocation that defeats
            # trace correlation.
            for cpu in range(n):
                prog = programs[cpu]
                region = rng.randrange(p.region_locks)
                prog.acquire(
                    lock_id=region, address=locks.block_addr(region),
                    pc=lock_pc, spin_pc=spin_pc, fixed_spins=None,
                )
                cells = rng.sample(
                    range(p.tree_blocks),
                    min(p.cells_written_per_cpu, p.tree_blocks),
                )
                for cell in cells:
                    # Tree insertion reads the cell before linking into
                    # it: a read-then-upgrade, so the writer's copy hits
                    # DSI's migratory exclusion.
                    prog.access(ld_cell_b, tree.block_addr(cell),
                                False, work=p.work)
                    for _s in range(rng.randint(1, 3)):
                        prog.access(st_cell, tree.block_addr(cell),
                                    True, work=p.work)
                prog.release(
                    lock_id=region, address=locks.block_addr(region),
                    pc=unlock_pc,
                )
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Force phase: read random tree cells (version moved by the
            # build-phase writes -> DSI candidates) and the fixed
            # upstream particle blocks (the stable, learnable share).
            for cpu in range(n):
                prog = programs[cpu]
                cells = rng.sample(
                    range(p.tree_blocks),
                    min(p.cells_read_per_cpu, p.tree_blocks),
                )
                for cell in cells:
                    # Traversal depth varies with the mutated tree: the
                    # touch count per cell changes every iteration, so
                    # trace signatures never stabilize.
                    for _d in range(rng.randint(1, 3)):
                        prog.access(ld_cell, tree.block_addr(cell),
                                    False, work=p.work)
                upstream = (cpu - 1) % n
                for i in range(p.stable_blocks_per_cpu):
                    prog.access(ld_part, stable_addr(upstream, i),
                                False, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Advance: rewrite own particle blocks (stable pattern).
            for cpu in range(n):
                prog = programs[cpu]
                for i in range(p.stable_blocks_per_cpu):
                    prog.access(st_part, stable_addr(cpu, i), True,
                                work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
