"""tomcatv — vectorized mesh-generation stencil (SPEC).

Paper behaviour to reproduce (Sections 5.1–5.3):

* "Tomcatv is a stencil computation in which multiple array elements
  are stored in the same memory block resulting in multiple references
  by the same instruction to the block" — Last-PC dies on the packed
  double-touches; LTP exceeds 95%.
* DSI reaches only 72%: boundary-row *owners* re-fetch with a read and
  then upgrade (read-modify-write), so the migratory exclusion keeps
  their copies out of candidacy; only the consuming neighbours'
  read-fetched copies self-invalidate.
* Section 5.3's subtrace-aliasing example for *global* tables comes
  from here: outer boundary rows are read once where inner rows are
  read twice, so outer-row traces are subtraces of inner-row traces —
  per-block tables keep them apart, a global table does not.

Structure: a row-partitioned grid, two elements packed per block. Each
node's two edge rows are consumed by the adjacent node (the "two
bordering columns" of Section 5.3 — the outer row read once, the inner
row twice per sweep). Owners read-modify-write their edge rows each
iteration. A residual-reduction array (each node stores its partial,
node 0 reads all) adds the write-fetch producer/consumer component of
the real program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams

ELEMS_PER_BLOCK = 2


@dataclass(frozen=True)
class TomcatvParams(WorkloadParams):
    """tomcatv dimensions (Table 2: 128x128 mesh, 50 iterations)."""

    #: blocks per grid row (row length = 2x this in elements)
    row_blocks: int = 8
    #: node-private interior rows per node (all accesses local)
    interior_rows: int = 2
    work: int = 96


class Tomcatv(Workload):
    """Row-partitioned 9-point stencil with packed blocks."""

    name = "tomcatv"
    presets = {
        "tiny": TomcatvParams(num_nodes=4, iterations=8, row_blocks=3,
                              interior_rows=1),
        "small": TomcatvParams(num_nodes=16, iterations=30),
        "paper": TomcatvParams(num_nodes=32, iterations=50, row_blocks=16,
                               interior_rows=4),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: TomcatvParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        rb = p.row_blocks

        # Per node: row 0 = outer edge (read once by neighbour),
        # row 1 = inner edge (read twice), plus private interior rows.
        edge = space.region("edge_rows", n * 2 * rb)
        interior = space.region("interior_rows", n * p.interior_rows * rb)
        residual = space.region("residual", n * 3)

        def edge_addr(cpu: int, row: int, blk: int) -> int:
            return edge.block_addr((cpu * 2 + row) * rb + blk)

        def interior_addr(cpu: int, row: int, blk: int) -> int:
            return interior.block_addr(
                (cpu * p.interior_rows + row) * rb + blk
            )

        bid = 0
        for _ in range(p.iterations):
            # Gather phase: read the southern neighbour's bordering rows
            # — the outer row once, the inner row twice (both elements
            # of each block through the same stencil load instruction).
            # The phase barrier below keeps the consumed copies alive
            # until the synchronization point, as in the real
            # double-buffered stencil.
            for cpu in range(n):
                prog = programs[cpu]
                south = (cpu + 1) % n
                for blk in range(rb):
                    prog.access(
                        code.pc("stencil.load_south"),
                        edge_addr(south, 0, blk), False, work=p.work,
                    )
                for blk in range(rb):
                    for _elem in range(ELEMS_PER_BLOCK):
                        prog.access(
                            code.pc("stencil.load_south"),
                            edge_addr(south, 1, blk), False, work=p.work,
                        )
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Update phase.
            for cpu in range(n):
                prog = programs[cpu]

                # Read-modify-write our own edge rows (each element
                # loaded and stored by the same loop instructions).
                for row in range(2):
                    for blk in range(rb):
                        for _elem in range(ELEMS_PER_BLOCK):
                            prog.access(
                                code.pc("update.load_own"),
                                edge_addr(cpu, row, blk), False,
                                work=p.work,
                            )
                            prog.access(
                                code.pc("update.store_own"),
                                edge_addr(cpu, row, blk), True,
                                work=p.work,
                            )

                # Private interior sweep (local after first touch).
                for row in range(p.interior_rows):
                    for blk in range(rb):
                        prog.access(
                            code.pc("update.load_interior"),
                            interior_addr(cpu, row, blk), False,
                            work=p.work,
                        )
                        prog.access(
                            code.pc("update.store_interior"),
                            interior_addr(cpu, row, blk), True,
                            work=p.work,
                        )

                # Residual reduction: pure stores of this node's
                # partials (RX, RY, and the relaxation factor).
                for field in range(3):
                    prog.access(
                        code.pc("residual.store_partial"),
                        residual.block_addr(cpu * 3 + field), True,
                        work=p.work,
                    )

            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Node 0 reduces the residuals and publishes convergence.
            for slot in range(n):
                if slot == 0:
                    continue
                for field in range(3):
                    programs[0].access(
                        code.pc("residual.reduce_load"),
                        residual.block_addr(slot * 3 + field), False,
                        work=p.work,
                    )

            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
