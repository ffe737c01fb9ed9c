"""raytrace — parallel ray tracer with a lock-protected global workpool.

Paper behaviour to reproduce (Sections 5.1, 5.4):

* "In raytrace, there is a global workpool holding the jobs that all
  processors work on. The workpool is protected by a lock ...
  Because jobs are assigned to one processor at a given time, memory
  blocks exhibit a migratory sharing pattern and as such DSI exhibits a
  low prediction accuracy. Both Last-PC and LTP successfully predict
  the migratory blocks, achieving an accuracy of 50%" — the other half
  of the invalidations are the lock blocks themselves, which "spin a
  variable number of times per visit" and defeat every trace predictor.
* Figure 9: "DSI successfully self-invalidates many of the critical
  section's data blocks, incurs minimal queueing, and improves
  performance" (+11%); LTP performs slightly worse here.

Structure: each node repeatedly grabs the workpool lock (variable spin
counts — contention-driven), reads-and-advances the job counter and
reads the current job descriptor (migratory RMW through *distinct*
instructions, so both trace predictors learn them), releases, renders
(heavy private work), and finally *rewrites* a descriptor slot with a
fresh job (a pure write fetch — the versioned candidate DSI profits
from).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class RaytraceParams(WorkloadParams):
    """raytrace dimensions (Table 2: car scene)."""

    jobs_per_cpu_per_frame: int = 6
    descriptor_blocks: int = 16
    #: private scene blocks per cpu (render working set)
    scene_blocks_per_cpu: int = 4
    #: bounds on private render accesses per job (randomized per
    #: (cpu, job): the source of irregular lock arrival and spin counts)
    render_min: int = 0
    render_max: int = 16
    #: cycles of shading arithmetic per render access
    render_work: int = 40


class Raytrace(Workload):
    """Global workpool: migratory job state + an unpredictable lock."""

    name = "raytrace"
    presets = {
        "tiny": RaytraceParams(num_nodes=4, iterations=6,
                               jobs_per_cpu_per_frame=2,
                               descriptor_blocks=6),
        "small": RaytraceParams(num_nodes=16, iterations=24),
        "paper": RaytraceParams(num_nodes=32, iterations=30,
                                jobs_per_cpu_per_frame=6,
                                descriptor_blocks=48),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: RaytraceParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        counter = space.region("pool_counter", 1)
        descriptors = space.region("descriptors", p.descriptor_blocks)
        lock_region = space.region("pool_lock", 1)
        scene = space.region("scene", n * p.scene_blocks_per_cpu)

        ld_ctr = code.pc("pool.load_counter")
        st_ctr = code.pc("pool.store_counter")
        ld_job = code.pc("pool.load_descriptor")
        st_job = code.pc("pool.store_descriptor")
        ld_scene = code.pc("render.load_scene")
        lock_pc = code.pc("pool.lock_testset")
        spin_pc = code.pc("pool.lock_spin")
        unlock_pc = code.pc("pool.unlock")

        def render(prog: ProgramBuilder, cpu: int, count: int) -> None:
            """Private shading loop: cache hits after the first touch,
            but it offsets the cpu's next lock arrival."""
            for r in range(count):
                block = cpu * p.scene_blocks_per_cpu + (
                    r % p.scene_blocks_per_cpu
                )
                prog.access(ld_scene, scene.block_addr(block),
                            False, work=p.render_work)

        # Stagger the first acquisitions so the queue stays shallow and
        # irregular, as in a real self-scheduled workpool.
        for cpu in range(n):
            render(programs[cpu], cpu, 1 + cpu)

        bid = 0
        for frame in range(p.iterations):
            slot_cursor = 0
            for j in range(p.jobs_per_cpu_per_frame):
                for cpu in range(n):
                    prog = programs[cpu]
                    prog.acquire(
                        lock_id=0, address=lock_region.block_addr(0),
                        pc=lock_pc, spin_pc=spin_pc, fixed_spins=None,
                    )
                    # Advance the counter (migratory RMW, distinct PCs).
                    prog.access(ld_ctr, counter.block_addr(0),
                                False, work=p.work)
                    prog.access(st_ctr, counter.block_addr(0),
                                True, work=p.work)
                    # Read the assigned job descriptor.
                    slot = slot_cursor % p.descriptor_blocks
                    slot_cursor += 1
                    prog.access(ld_job,
                                descriptors.block_addr(slot),
                                False, work=p.work)
                    prog.release(
                        lock_id=0, address=lock_region.block_addr(0),
                        pc=unlock_pc,
                    )
                    # Render: variable-length private computation, then
                    # publish a fresh job with a pure store (the DSI
                    # candidate: its version tag moves every rewrite).
                    render(prog, cpu,
                           rng.randint(p.render_min, p.render_max))
                    refill = (slot + n) % p.descriptor_blocks
                    prog.access(st_job,
                                descriptors.block_addr(refill),
                                True, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)
