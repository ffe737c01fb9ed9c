"""dsmc — discrete simulation Monte Carlo of particle gas (Moon & Saltz).

Paper behaviour to reproduce (Sections 5.1, 5.4):

* "In dsmc communication occurs through message buffers implemented
  through a library. Multiple calls to the messaging code in the same
  computation phase result in multiple accesses to a block by the same
  instruction preventing Last-PC from accurately predicting."
* "Subsequent accesses to the main data structure beyond the
  synchronization in the message buffers significantly reduce DSI's
  ability to predict and result in a large number of mispredictions" —
  DSI self-invalidates the cell blocks at the mid-phase library lock,
  then the node touches them again: premature.
* Figure 9: "computation in dsmc overlaps most of the invalidations" —
  heavy per-access work makes both policies land near 1.0x.

Structure per iteration and node: read own cell-occupancy blocks
(move/collide), send particles to both ring neighbours through the
library (a lock-protected buffer allocation, then several stores to the
buffer blocks through one library instruction), then *re-visit* the own
cell blocks (the post-synchronization accesses that trap DSI), barrier,
then read the buffers addressed to us and rewrite our cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class DsmcParams(WorkloadParams):
    """dsmc dimensions (Table 2: 48600 molecules, 9720 cells)."""

    cells_per_cpu: int = 6
    #: buffer blocks per (sender, neighbour) channel
    buffer_blocks: int = 3
    #: stores per buffer block per send (library batching)
    writes_per_buffer: int = 2
    #: dsmc is compute-bound: heavy work per access
    work: int = 60


class Dsmc(Workload):
    """Cell sweeps + library message buffers with a mid-phase lock."""

    name = "dsmc"
    presets = {
        "tiny": DsmcParams(num_nodes=4, iterations=8, cells_per_cpu=3,
                           buffer_blocks=2),
        "small": DsmcParams(num_nodes=16, iterations=30),
        "paper": DsmcParams(num_nodes=32, iterations=60, cells_per_cpu=12,
                            buffer_blocks=4),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: DsmcParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        cells = space.region("cells", n * p.cells_per_cpu)
        # channel (sender -> sender+1) and (sender -> sender-1)
        buffers = space.region("msg_buffers", n * 2 * p.buffer_blocks)
        locks = space.region("alloc_locks", n)

        ld_cell = code.pc("move.load_cell")
        st_cell = code.pc("move.store_cell")
        lib_store = code.pc("msg_lib.store_slot")
        lib_load = code.pc("msg_lib.load_slot")
        lock_pc = code.pc("msg_lib.lock_testset")
        spin_pc = code.pc("msg_lib.lock_spin")
        unlock_pc = code.pc("msg_lib.unlock")

        def cell_addr(cpu: int, i: int) -> int:
            return cells.block_addr(cpu * p.cells_per_cpu + i)

        def buffer_addr(sender: int, channel: int, i: int) -> int:
            return buffers.block_addr(
                (sender * 2 + channel) * p.buffer_blocks + i
            )

        bid = 0
        for _ in range(p.iterations):
            for cpu in range(n):
                prog = programs[cpu]
                # Move/collide: sweep own cells (read then update).
                for i in range(p.cells_per_cpu):
                    prog.access(ld_cell, cell_addr(cpu, i), False, work=p.work)
                # Library send to both neighbours: the allocation lock is
                # the mid-phase synchronization DSI triggers on.
                prog.acquire(
                    lock_id=cpu, address=locks.block_addr(cpu),
                    pc=lock_pc, spin_pc=spin_pc, fixed_spins=1,
                )
                for channel in range(2):
                    for i in range(p.buffer_blocks):
                        prog.access(
                            lib_store, buffer_addr(cpu, channel, i),
                            True, work=p.work,
                        )
                prog.release(
                    lock_id=cpu, address=locks.block_addr(cpu),
                    pc=unlock_pc,
                )
                # The library fills the payloads *after* dropping the
                # allocation lock — message-buffer accesses beyond the
                # synchronization, DSI's premature trap.
                for channel in range(2):
                    for i in range(p.buffer_blocks):
                        # Payload length grows with the slot index:
                        # short-buffer traces are complete subtraces of
                        # long-buffer traces through the same library
                        # store — cross-block aliasing for global tables.
                        for _w in range(p.writes_per_buffer - 1 + i):
                            prog.access(
                                lib_store, buffer_addr(cpu, channel, i),
                                True, work=p.work,
                            )
                # Post-synchronization accesses to the main structure
                # through the same cell-scan code: exactly what makes
                # DSI's lock-release trigger premature, and the repeated
                # PC that starves Last-PC.
                for i in range(p.cells_per_cpu):
                    prog.access(ld_cell, cell_addr(cpu, i), False, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)

            # Receive: read the buffers our neighbours addressed to us,
            # then update our cells (writes other cpus will re-read).
            for cpu in range(n):
                prog = programs[cpu]
                west = (cpu - 1) % n  # west's channel 0 points at us
                east = (cpu + 1) % n  # east's channel 1 points at us
                for sender, channel in ((west, 0), (east, 1)):
                    for i in range(p.buffer_blocks):
                        for _r in range(p.writes_per_buffer):
                            prog.access(
                                lib_load,
                                buffer_addr(sender, channel, i), False,
                                work=p.work,
                            )
                # Deposit arriving particles into the *eastern*
                # neighbour's cells (two stores per cell through the
                # deposit loop), moving each cell's write version along.
                east_cells = (cpu + 1) % n
                for i in range(p.cells_per_cpu):
                    for _d in range(2):
                        prog.access(st_cell,
                                    cell_addr(east_cells, i), True,
                                    work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
