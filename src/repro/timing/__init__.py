"""Discrete-event timing model of the 32-node CC-NUMA (Sections 5, 5.4).

The accuracy experiments need only coherence-event ordering; the
execution-time experiments (Figure 9, Table 4) additionally need *when*
things happen: how long misses stall processors, how self-invalidation
messages queue at the directory, and whether they arrive before the next
request. This package provides that model:

* a point-to-point network with constant latency and per-node network
  interface serialization (the paper "models contention at the network
  interfaces");
* a **two-stage pipelined directory engine** per home node (the paper's
  aggressive protocol engine [15]): a new message may start service
  every ``engine_occupancy`` cycles while each message's full service
  takes ``*_service_time`` cycles; FIFO queueing with per-message
  queueing-delay accounting;
* in-order processors that block on coherence misses, FIFO locks whose
  hand-off traffic flows through the coherence protocol, and global
  barriers;
* the complete split-transaction write-invalidate protocol with
  self-invalidation races resolved in directory-queue order: a
  self-invalidation serviced before the next request is *timely* (the
  request takes the 2-hop fast path), one overtaken by the request
  degenerates to the base 3-hop transaction and is counted *late*.
"""

from repro.timing.config import SystemConfig
from repro.timing.engine import TimingSimulator
from repro.timing.stats import TimingReport

__all__ = [
    "SystemConfig",
    "TimingReport",
    "TimingSimulator",
]
