"""appbt — NAS block-tridiagonal solver.

Paper behaviour to reproduce (Section 5.1):

* "In appbt, most last-touches to data blocks are spread among
  different PCs" — Last-PC predicts the data blocks (the final touch of
  each trace is a distinct instruction) but "fails to predict the
  last-touches to the spin-locks, achieving a prediction accuracy of
  75%". The spin-locks spin a *fixed* number of times per visit in the
  pipelined gaussian-elimination phase, so LTP learns them.
* "Because the spin-locks are not exposed to DSI, it fails to predict a
  large fraction of the invalidations only predicting 40% of them
  correctly. Moreover, DSI predicts 25% of the invalidations
  prematurely" — lock accesses are read-then-upgrade (migratory
  exclusion) and the face blocks are touched again after the lock
  release DSI triggers on.

Structure per iteration and node: read the previous node's face blocks
(solver sweep: each block touched by a short sequence of *distinct*
instructions, so Last-PC works), rewrite own face blocks the same way,
then the gaussian-elimination pipeline: acquire the stage spin-lock
with a fixed spin count, read-modify-write the shared pivot blocks,
release, and touch the faces once more (DSI's premature trap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class AppbtParams(WorkloadParams):
    """appbt dimensions (Table 2: 12x12x12 cubes, 40 iterations)."""

    face_blocks_per_cpu: int = 4
    pivot_blocks: int = 4
    lock_spins: int = 2
    work: int = 64


class Appbt(Workload):
    """Face exchange with distinct-PC last touches + pipelined locks."""

    name = "appbt"
    presets = {
        "tiny": AppbtParams(num_nodes=4, iterations=8,
                            face_blocks_per_cpu=3, pivot_blocks=2),
        "small": AppbtParams(num_nodes=16, iterations=30),
        "paper": AppbtParams(num_nodes=32, iterations=40,
                             face_blocks_per_cpu=12, pivot_blocks=8),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: AppbtParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        faces = space.region("faces", n * p.face_blocks_per_cpu)
        pivots = space.region("pivots", p.pivot_blocks)
        locks = space.region("stage_locks", n)

        # Distinct instructions per touch: the solver's unrolled update.
        ld_face = code.pc("sweep.load_face")
        st_face_x = code.pc("sweep.store_face_x")
        st_face_y = code.pc("sweep.store_face_y")
        ld_piv = code.pc("gauss.load_pivot")
        st_piv = code.pc("gauss.store_pivot")
        ld_face_post = code.pc("backsub.load_face")
        lock_pc = code.pc("gauss.lock_testset")
        spin_pc = code.pc("gauss.lock_spin")
        unlock_pc = code.pc("gauss.unlock")

        def face_addr(cpu: int, i: int) -> int:
            return faces.block_addr(cpu * p.face_blocks_per_cpu + i)

        bid = 0
        for _ in range(p.iterations):
            for cpu in range(n):
                prog = programs[cpu]
                upstream = (cpu - 1) % n

                # Consume the upstream face: one load per block.
                for i in range(p.face_blocks_per_cpu):
                    prog.access(ld_face, face_addr(upstream, i),
                                False, work=p.work)
                # Rewrite our face: two stores through distinct unrolled
                # instructions; the last touch is always st_face_y.
                for i in range(p.face_blocks_per_cpu):
                    prog.access(st_face_x, face_addr(cpu, i), True,
                                work=p.work)
                    prog.access(st_face_y, face_addr(cpu, i), True,
                                work=p.work)
                    if i % 2 == 1:
                        # Corner blocks take a third store: even-block
                        # traces become subtraces of odd-block traces
                        # (global-table aliasing, harmless per-block).
                        prog.access(st_face_y, face_addr(cpu, i),
                                    True, work=p.work)

                # Gaussian-elimination stage: fixed-spin lock, shared
                # pivot RMW, release — then the back-substitution touch
                # of our face beyond the release (DSI's premature trap:
                # the face blocks were read-fetched by the downstream
                # node's sweep, moving their versions; our own copies
                # are candidates from the *previous* iteration's fetch).
                stage = cpu % max(1, n // 4)
                for _sweep in range(2):  # forward + backward elimination
                    prog.acquire(
                        lock_id=stage, address=locks.block_addr(stage),
                        pc=lock_pc, spin_pc=spin_pc,
                        fixed_spins=p.lock_spins,
                    )
                    for j in range(p.pivot_blocks):
                        prog.access(ld_piv, pivots.block_addr(j),
                                    False, work=p.work)
                        prog.access(st_piv, pivots.block_addr(j),
                                    True, work=p.work)
                    prog.release(
                        lock_id=stage, address=locks.block_addr(stage),
                        pc=unlock_pc,
                    )
                # Post-release touch of the upstream face (back-subst).
                for i in range(p.face_blocks_per_cpu):
                    prog.access(ld_face_post, face_addr(upstream, i),
                                False, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
