"""moldyn — CHARMM-like molecular dynamics.

Paper behaviour to reproduce (Sections 5.1, 5.4):

* "Moldyn includes a reduction phase in which the same data are read
  and modified multiple times in a small loop. Multiple references by
  the same PC in the reduction phase reduce Last-PC's prediction
  accuracy to less than 3%. Because the reduction phase results in
  migratory sharing patterns, DSI only predicts 40% of the
  invalidations correctly."
* Figure 9 / Table 4: the "high read sharing degree in moldyn overlaps
  most of the invalidations, diminishing the effect of
  self-invalidation" — both policies land near 1.0x.

Structure: coordinates (one block per particle) and force accumulators.
The force phase walks a fixed interaction list: it *reads* the two
particles' coordinates (read sharing: many consumers per coordinate
block) and read-modify-writes both force accumulators, revisiting the
same force block once per interaction through the same loop
instructions (migratory RMW — DSI-excluded, Last-PC-fatal). The update
phase reads the accumulated forces (read fetches whose version moved —
the DSI-predictable share) and rewrites the owner's coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class MoldynParams(WorkloadParams):
    """moldyn dimensions (Table 2: 2048 particles, 60 iterations)."""

    particles_per_cpu: int = 8
    interactions_per_cpu: int = 12
    #: fraction of interactions whose partner particle is remote
    remote_fraction: float = 0.5
    #: how many cpus read each coordinate block (read sharing degree)
    readers_per_coord: int = 4
    work: int = 48


class Moldyn(Workload):
    """Force reduction with migratory RMW + widely read coordinates."""

    name = "moldyn"
    presets = {
        "tiny": MoldynParams(num_nodes=4, iterations=8,
                             particles_per_cpu=3, interactions_per_cpu=4),
        "small": MoldynParams(num_nodes=16, iterations=30),
        "paper": MoldynParams(num_nodes=32, iterations=60,
                              particles_per_cpu=16,
                              interactions_per_cpu=24),
    }

    def _interaction_list(
        self, rng: random.Random
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Fixed interaction pairs per cpu, *sorted by particle*.

        Real MD codes sort interaction lists for locality, so a cpu's
        accumulations into one force block are consecutive — the "same
        data read and modified multiple times in a small loop" that
        reduces Last-PC below 3%. Partners are drawn from a small
        per-cpu set so most force blocks take several consecutive RMWs.
        """
        p: MoldynParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        result: Dict[int, List[Tuple[int, int]]] = {}
        for cpu in range(n):
            partner_cpus = []
            for _ in range(2):
                other = rng.randrange(n - 1)
                if other >= cpu:
                    other += 1
                partner_cpus.append(other)
            pairs = []
            for _ in range(p.interactions_per_cpu):
                i = cpu * p.particles_per_cpu + rng.randrange(
                    max(1, p.particles_per_cpu // 2)
                )
                if rng.random() < p.remote_fraction:
                    other = rng.choice(partner_cpus)
                else:
                    other = cpu
                j = other * p.particles_per_cpu + rng.randrange(
                    max(1, p.particles_per_cpu // 2)
                )
                pairs.append((i, j))
            pairs.sort()
            result[cpu] = pairs
        return result

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: MoldynParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        total_particles = n * p.particles_per_cpu
        coords = space.region("coordinates", total_particles)
        forces = space.region("forces", total_particles)
        interactions = self._interaction_list(rng)

        ld_ci = code.pc("force.load_coord_i")
        ld_cj = code.pc("force.load_coord_j")
        ld_fi = code.pc("force.load_force_i")
        st_fi = code.pc("force.store_force_i")
        ld_fj = code.pc("force.load_force_j")
        st_fj = code.pc("force.store_force_j")
        ld_f = code.pc("update.load_force")
        st_c = code.pc("update.store_coord")
        ld_extra = code.pc("force.load_coord_shared")

        bid = 0
        for _ in range(p.iterations):
            # Force phase.
            for cpu in range(n):
                prog = programs[cpu]
                # Broad read sharing of coordinates: each cpu also reads
                # a fixed window of other cpus' particles.
                for d in range(1, p.readers_per_coord + 1):
                    src = (cpu + d) % n
                    particle = src * p.particles_per_cpu
                    for _c in range(2):
                        prog.access(ld_extra,
                                    coords.block_addr(particle),
                                    False, work=p.work)
                for i, j in interactions[cpu]:
                    # Each logical access is a two-component loop (x and
                    # y) through the same instruction — the small-loop
                    # reuse that reduces Last-PC below 3%.
                    for _c in range(2):
                        prog.access(ld_ci, coords.block_addr(i),
                                    False, work=p.work)
                    for _c in range(2):
                        prog.access(ld_cj, coords.block_addr(j),
                                    False, work=p.work)
                    for _c in range(2):
                        prog.access(ld_fi, forces.block_addr(i),
                                    False, work=p.work)
                        prog.access(st_fi, forces.block_addr(i),
                                    True, work=p.work)
                    for _c in range(2):
                        prog.access(ld_fj, forces.block_addr(j),
                                    False, work=p.work)
                        prog.access(st_fj, forces.block_addr(j),
                                    True, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Update phase: integrate forces into own coordinates.
            for cpu in range(n):
                prog = programs[cpu]
                for k in range(p.particles_per_cpu):
                    particle = cpu * p.particles_per_cpu + k
                    for _c in range(2):
                        prog.access(ld_f,
                                    forces.block_addr(particle),
                                    False, work=p.work)
                    for _c in range(2):
                        prog.access(st_c,
                                    coords.block_addr(particle),
                                    True, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
