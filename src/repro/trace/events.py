"""Event types flowing between workloads, the protocol, and predictors.

Two kinds of events exist in the global interleaved stream produced by
the scheduler (:func:`repro.trace.scheduler.interleave` decodes them
from the compiled stream the accuracy simulator replays):

* :class:`MemoryAccess` — one dynamic memory instruction (load or store)
  by one node, identified by its program counter. Addresses are byte
  addresses; the coherence layer maps them to blocks.
* :class:`SyncBoundary` — a node crossing a synchronization boundary
  (lock release, barrier). These carry no coherence semantics by
  themselves (lock traffic is modelled with real accesses) but trigger
  DSI's bulk self-invalidation and mark phases for analysis.

The protocol additionally produces :class:`Invalidation` events that are
delivered to the per-node predictors; an invalidation terminates the
node's trace for that block (the learning event of Section 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SyncKind(enum.Enum):
    """The kind of synchronization boundary a node crossed."""

    BARRIER = "barrier"
    LOCK_ACQUIRE = "lock_acquire"
    LOCK_RELEASE = "lock_release"


class InvalidationReason(enum.Enum):
    """Why a cached copy was removed.

    ``EXTERNAL`` invalidations (another node's request) are the paper's
    learning events; ``SELF`` removals come from speculative
    self-invalidation and are verified later by the directory mask.
    """

    EXTERNAL = "external"
    SELF = "self"


@dataclass(slots=True)
class MemoryAccess:
    """One dynamic load/store by ``node`` at instruction ``pc``.

    Attributes:
        node: issuing processor id, ``0 <= node < num_nodes``.
        pc: program counter of the instruction (synthetic but stable:
            the same static instruction always has the same pc).
        address: byte address touched.
        is_write: True for stores (including atomic read-modify-writes).
    """

    node: int
    pc: int
    address: int
    is_write: bool


@dataclass(slots=True)
class SyncBoundary:
    """Node ``node`` crossed a synchronization boundary.

    ``sync_id`` identifies the static synchronization object (lock id or
    barrier id) so analyses can distinguish boundaries.
    """

    node: int
    kind: SyncKind
    sync_id: int


@dataclass(slots=True)
class Invalidation:
    """The copy of ``block`` held by ``node`` was removed.

    Delivered by the coherence engine to the node's predictor. ``by_node``
    is the requester that triggered an EXTERNAL invalidation (or the node
    itself for SELF).
    """

    node: int
    block: int
    reason: InvalidationReason
    by_node: int
