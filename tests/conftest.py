"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import threading
import time

import pytest

import repro.telemetry as telemetry
from repro.trace.program import Access, Barrier, Program, ProgramSet

BLOCK = 32  # bytes

#: seconds a test's threads get, all told, to finish unwinding at
#: teardown (a worker that just saw its broker stop)
THREAD_EXIT_GRACE = 2.0


@pytest.fixture(autouse=True)
def _isolated():
    """Fail a test that leaves a thread it started running, and drop
    the process-global span sink after every test.

    A leaked thread outlives its test: a broker handler keeps
    answering, a worker keeps polling, and both emit spans into
    whatever sink a later test configures. Worse, a later test that
    forks inherits the leaked threads' held locks in the child.
    """
    before = set(threading.enumerate())
    yield
    try:
        deadline = time.monotonic() + THREAD_EXIT_GRACE
        leaked = []
        for thread in threading.enumerate():
            if thread in before:
                continue
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                leaked.append(thread.name)
    finally:
        telemetry.shutdown()
    if leaked:
        pytest.fail(
            f"test left thread(s) running: {', '.join(sorted(leaked))}",
            pytrace=False,
        )


def addr(block_number: int, offset: int = 0) -> int:
    """Byte address inside a given block."""
    return block_number * BLOCK + offset


def producer_consumer(
    iterations: int = 10,
    num_consumers: int = 1,
    writes_per_iter: int = 1,
    block: int = 0x100,
) -> ProgramSet:
    """Node 0 writes a block each iteration; consumers read it after a
    barrier. The canonical single-touch, fully repetitive workload."""
    n = 1 + num_consumers
    progs = {i: Program(i) for i in range(n)}
    bid = 0
    for _ in range(iterations):
        for w in range(writes_per_iter):
            progs[0].append(Access(0x100 + 4 * w, addr(block), True))
        bid += 1
        for i in range(n):
            progs[i].append(Barrier(bid))
        for c in range(1, n):
            progs[c].append(Access(0x200 + 4 * c, addr(block), False))
        bid += 1
        for i in range(n):
            progs[i].append(Barrier(bid))
    return ProgramSet("producer-consumer", n, progs)


def migratory_rmw(
    iterations: int = 10, nodes: int = 3, block: int = 0x200
) -> ProgramSet:
    """Each node in turn reads then writes the block (token passing)."""
    progs = {i: Program(i) for i in range(nodes)}
    bid = 0
    for _ in range(iterations):
        for node in range(nodes):
            progs[node].append(Access(0x300, addr(block), False))
            progs[node].append(Access(0x304, addr(block), True))
            bid += 1
            for i in range(nodes):
                progs[i].append(Barrier(bid))
    return ProgramSet("migratory", nodes, progs)


@pytest.fixture
def pc_workload() -> ProgramSet:
    return producer_consumer()


@pytest.fixture
def migratory_workload() -> ProgramSet:
    return migratory_rmw()
