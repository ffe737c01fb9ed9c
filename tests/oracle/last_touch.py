"""The reference accuracy simulator's oracle profiling pass.

:func:`compute_last_touch_ordinals` replays a stream through the
reference coherence engine and records, for each node, the node-local
ordinals of the accesses that turned out to be last touches;
``OraclePolicy`` then fires at exactly those ordinals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.trace.events import MemoryAccess
from tests.oracle.coherence import CoherenceEngine


def compute_last_touch_ordinals(
    stream: Iterable, num_nodes: int, block_shift: int = 5
) -> Dict[int, Set[int]]:
    """Profile ``stream`` and return node -> set of last-touch ordinals.

    An access's *ordinal* is its index in that node's own access stream
    (0-based). An access is a last touch when the node's copy of the
    block is externally invalidated before the node touches it again.
    """
    engine = CoherenceEngine(num_nodes, block_shift=block_shift)
    ordinal = [0] * num_nodes
    last_access: Dict[int, Dict[int, int]] = {
        n: {} for n in range(num_nodes)
    }
    result: Dict[int, Set[int]] = {n: set() for n in range(num_nodes)}
    for ev in stream:
        if not isinstance(ev, MemoryAccess):
            continue
        res = engine.access(ev.node, ev.pc, ev.address, ev.is_write)
        for inv in res.invalidations:
            mark = last_access[inv.node].get(inv.block)
            if mark is not None:
                result[inv.node].add(mark)
        last_access[ev.node][res.block] = ordinal[ev.node]
        ordinal[ev.node] += 1
    return result
