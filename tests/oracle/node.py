"""Per-node execution state for the timing simulator.

Nodes are in-order processors: they execute their program's steps
sequentially, block on coherence misses (and barriers and contended
locks), and resume when the reply (or release, or grant) arrives. Lock
acquisition injects the lock's memory traffic (spin reads + the
test&set store) ahead of the program's own steps via ``injected``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from tests.oracle.policies import SelfInvalidationPolicy


class NodeStatus(enum.Enum):
    RUNNING = "running"
    BLOCKED_MISS = "blocked_miss"
    BLOCKED_BARRIER = "blocked_barrier"
    BLOCKED_LOCK = "blocked_lock"
    FINISHED = "finished"


@dataclass
class InjectedAccess:
    """A lock-protocol access executed before the next program step.

    ``after`` runs when the access completes (used to release a lock
    only once its releasing store is globally visible).
    """

    pc: int
    address: int
    is_write: bool
    after: Optional[Callable[[int], None]] = None


@dataclass
class NodeContext:
    """Everything the engine tracks per processor."""

    node: int
    policy: SelfInvalidationPolicy
    status: NodeStatus = NodeStatus.RUNNING
    step_index: int = 0
    injected: Deque[InjectedAccess] = field(default_factory=deque)
    #: outstanding miss: (pc, address, is_write, completion callback)
    outstanding: Optional[
        Tuple[int, int, bool, Optional[Callable[[int], None]]]
    ] = None
    #: blocks this node flushed whose SELF_INVAL is still in flight
    si_inflight: Set[int] = field(default_factory=set)
    #: blocks pushed to this node by the forwarding extension, not yet
    #: touched (usefulness accounting)
    forwarded: Set[int] = field(default_factory=set)
    #: lock hand-off count observed when this node queued on a lock
    lock_wait_mark: int = 0
    #: the LockAcquire step this node is queued on (None otherwise)
    pending_lock: Optional[object] = None
    #: per-block fire generation: bumped on every eviction so a delayed
    #: self-invalidation cannot evict a copy fetched after the decision
    fire_epoch: Dict[int, int] = field(default_factory=dict)
    finish_time: int = 0
