#!/usr/bin/env python
"""Authoring a new workload against the public API.

Defines a small pipeline workload (stage i hands a batch of blocks to
stage i+1 each iteration, with a token lock), registers nothing —
workloads are just objects — and runs the full accuracy + timing
pipeline on it.

``_generate`` writes each node's steps through that node's
``ProgramBuilder``: ``access``, ``barrier``, ``acquire`` and
``release`` construct a step the first time the build sees it and
append that same object every time it recurs, so the iterations after
the first cost a table lookup per step, not a new object.

Use this as the template for studying your own sharing patterns.

Run:  python examples/custom_workload.py
"""

import random
from dataclasses import dataclass
from typing import Dict

from repro.core import NullPolicy, PerBlockLTP
from repro.sim import AccuracySimulator
from repro.timing import TimingSimulator
from repro.trace.program import ProgramBuilder
from repro.workloads.address_space import AddressSpace, CodeMap
from repro.workloads.base import Workload, WorkloadParams


@dataclass(frozen=True)
class PipelineParams(WorkloadParams):
    """Stage-to-stage hand-off; each stage owns `batch` blocks."""

    batch: int = 6


class Pipeline(Workload):
    """Each node transforms its predecessor's batch into its own."""

    name = "pipeline"
    presets = {
        "tiny": PipelineParams(num_nodes=4, iterations=10),
        "small": PipelineParams(num_nodes=8, iterations=30),
        "paper": PipelineParams(num_nodes=32, iterations=40, batch=12),
    }

    def _generate(
        self,
        programs: Dict[int, ProgramBuilder],
        space: AddressSpace,
        code: CodeMap,
        rng: random.Random,
    ) -> None:
        p: PipelineParams = self.params  # type: ignore[assignment]
        n = p.num_nodes
        batches = space.region("batches", n * p.batch)
        ld = code.pc("stage.load_upstream")
        st = code.pc("stage.store_own")

        def addr(cpu: int, i: int) -> int:
            return batches.block_addr(cpu * p.batch + i)

        bid = 0
        for _ in range(p.iterations):
            for cpu in range(n):
                upstream = (cpu - 1) % n
                prog = programs[cpu]
                for i in range(p.batch):
                    prog.access(ld, addr(upstream, i), False, work=p.work)
                for i in range(p.batch):
                    prog.access(st, addr(cpu, i), True, work=p.work)
            bid += 1
            for cpu in range(n):
                programs[cpu].barrier(bid)


def main() -> None:
    programs = Pipeline.sized("small").build()
    print(f"custom workload: {programs.name}, "
          f"{programs.total_steps():,} steps\n")

    accuracy = AccuracySimulator(lambda node: PerBlockLTP()).run(programs)
    print("accuracy:", accuracy.summary())

    base = TimingSimulator(lambda node: NullPolicy()).run(programs)
    ltp = TimingSimulator(lambda node: PerBlockLTP()).run(programs)
    print(f"timing:   base {base.execution_cycles:,.0f} cycles, "
          f"LTP {ltp.execution_cycles:,.0f} cycles "
          f"-> speedup {ltp.speedup_over(base):.3f}")
    print(f"          {ltp.selfinval.timeliness:.1%} of correct "
          f"self-invalidations arrived before the consumer")


if __name__ == "__main__":
    main()
