"""ocean — red/black SOR ocean-current simulation (SPLASH-2).

Paper behaviour to reproduce (Sections 3.1, 5.1):

* "Ocean implements a red/black SOR algorithm in a computation phase
  encapsulated in a function invoked twice every iteration. The
  resulting multiple touches by the function's PCs reduce prediction
  accuracy in Last-PC to 40%."
* "Sharing blocks in ocean often spans beyond critical sections; a
  block's producer in a critical section reads the block in the
  subsequent phase. As a result, DSI predicts only 38% of the
  invalidations accurately and generates 20% mispredicted
  invalidations."
* Section 3.1's red/black subtrace-aliasing example: the same code
  touches a block two times in one parity and three in the other, so
  one trace is a complete subtrace of the other and LTP "will result in
  a last-touch misprediction in every invocation of such code" — we
  include a small set of such alternating blocks, which is why ocean's
  LTP bar sits in the 80s rather than the high 90s.

Structure per iteration: the SOR function runs twice (red pass, black
pass) over the same static instructions: each pass reads the
neighbouring node's opposite-colour boundary blocks (two packed
elements through one load) and read-modify-writes its own
current-colour boundary. A lock-protected global-sum follows; the
producer re-reads its partial after the release (DSI's trap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class OceanParams(WorkloadParams):
    """ocean dimensions (Table 2: 128x128 grid, 12 iterations)."""

    boundary_blocks_per_cpu: int = 5
    #: per-node blocks exhibiting the red/black alternating-length trace
    alternating_blocks_per_cpu: int = 2
    work: int = 64


class Ocean(Workload):
    """Red/black SOR with function-PC reuse and straddling lock data."""

    name = "ocean"
    presets = {
        "tiny": OceanParams(num_nodes=4, iterations=8,
                            boundary_blocks_per_cpu=2,
                            alternating_blocks_per_cpu=1),
        "small": OceanParams(num_nodes=16, iterations=30),
        "paper": OceanParams(num_nodes=32, iterations=24,
                             boundary_blocks_per_cpu=10,
                             alternating_blocks_per_cpu=4),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: OceanParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        bb = p.boundary_blocks_per_cpu
        # colour 0 = red boundary, colour 1 = black boundary
        boundary = space.region("boundary", n * 2 * bb)
        alternating = space.region(
            "alternating", n * p.alternating_blocks_per_cpu
        )
        partials = space.region("partial_sums", n * 3)
        lock_region = space.region("sum_lock", 1)

        # The SOR function's static instructions — shared by both passes.
        ld_nbr = code.pc("sor.load_neighbour")
        ld_own = code.pc("sor.load_own")
        st_own = code.pc("sor.store_own")
        ld_alt = code.pc("sor.load_alt")
        st_alt = code.pc("sor.store_alt")
        st_partial = code.pc("gsum.store_partial")
        ld_partial_post = code.pc("gsum.reload_partial")
        ld_all = code.pc("gsum.accumulate")
        lock_pc = code.pc("gsum.lock_testset")
        spin_pc = code.pc("gsum.lock_spin")
        unlock_pc = code.pc("gsum.unlock")

        def bnd_addr(cpu: int, colour: int, i: int) -> int:
            return boundary.block_addr((cpu * 2 + colour) * bb + i)

        def alt_addr(cpu: int, i: int) -> int:
            return alternating.block_addr(
                cpu * p.alternating_blocks_per_cpu + i
            )

        bid = 0
        for it in range(p.iterations):
            for colour in (0, 1):  # the function invoked twice
                for cpu in range(n):
                    prog = programs[cpu]
                    south = (cpu + 1) % n
                    # Read the neighbour's opposite-colour boundary: two
                    # packed elements through one load instruction.
                    for i in range(bb):
                        # Outer blocks (even i) are read once, inner
                        # blocks twice through the same load: the
                        # outer-row traces are subtraces of the inner
                        # ones (Section 5.3's global-table aliasing).
                        for _elem in range(1 + (i % 2)):
                            prog.access(
                                ld_nbr, bnd_addr(south, 1 - colour, i),
                                False, work=p.work,
                            )
                    # RMW our current-colour boundary.
                    for i in range(bb):
                        prog.access(ld_own,
                                    bnd_addr(cpu, colour, i),
                                    False, work=p.work)
                        prog.access(st_own,
                                    bnd_addr(cpu, colour, i),
                                    True, work=p.work)
                    # Alternating-length traces (Section 3.1 red/black
                    # example): two touches on red passes, three on
                    # black — the shorter trace is a subtrace of the
                    # longer, so LTP mispredicts one parity forever.
                    for i in range(p.alternating_blocks_per_cpu):
                        touches = 2 if colour == 0 else 3
                        prog.access(ld_alt, alt_addr(cpu, i),
                                    False, work=p.work)
                        for _t in range(touches - 1):
                            prog.access(st_alt, alt_addr(cpu, i),
                                        True, work=p.work)
                bid += 1
                for cpu in range(n):
                    programs[cpu].barrier(bid)

            # The alternating blocks migrate: the neighbour reads them
            # between iterations, invalidating the owner's copies.
            for cpu in range(n):
                reader = (cpu + 1) % n
                for i in range(p.alternating_blocks_per_cpu):
                    programs[reader].access(
                        code.pc("sor.exchange_alt"), alt_addr(cpu, i),
                        False, work=p.work,
                    )

            # Global-sum critical section: write the partial inside the
            # lock, then read it back after the release — the sharing
            # that spans beyond the critical section.
            for cpu in range(n):
                prog = programs[cpu]
                prog.acquire(
                    lock_id=0, address=lock_region.block_addr(0),
                    pc=lock_pc, spin_pc=spin_pc, fixed_spins=None,
                )
                for field in range(3):
                    prog.access(st_partial,
                                partials.block_addr(cpu * 3 + field),
                                True, work=p.work)
                prog.access(ld_all,
                            partials.block_addr(((cpu + 1) % n) * 3),
                            False, work=p.work)
                prog.release(
                    lock_id=0, address=lock_region.block_addr(0),
                    pc=unlock_pc,
                )
                # Producer reads its own partial in the subsequent phase.
                for field in range(3):
                    prog.access(ld_partial_post,
                                partials.block_addr(cpu * 3 + field),
                                False, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
