"""Two-stage pipelined directory engine with FIFO queue.

One instance per home node. The engine models the paper's "aggressive
two-stage pipelined protocol engine" [Nanda et al., HPCA'00]: service of
a message takes its full service time, but a new message may *start*
every ``engine_occupancy`` cycles, overlapping the tail of the previous
service. Queueing delay (Table 4) is the gap between a message's arrival
and its service start.

Block-level transaction serialization: while a block has a transaction
in flight (third-party invalidations or a writeback outstanding),
further requests and self-invalidations for that block are *parked*
without consuming the server; they re-enter at the head of the queue
when the transaction completes, with their original arrival stamps so
the wait shows up as queueing delay.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Set

from repro.timing.config import SystemConfig
from repro.timing.engine import K_DIR_COMPLETE, K_DIR_DEQUEUE
from repro.timing.stats import DirectoryStats
from tests.oracle.messages import DATA_CARRYING, PARKABLE, Message, MsgType

#: (time, event_kind, callback) scheduling function provided by the
#: event loop; the kind code (repro.timing.engine.K_*) feeds the per-kind
#: dispatch counters both cores report as ``event_counts``
Scheduler = Callable[[int, int, Callable[[int], None]], None]
#: handler(message, service_completion_time) applied by the protocol
ServiceHandler = Callable[[Message, int], None]


class DirectoryEngine:
    """Queue + pipelined server for one home node's directory."""

    def __init__(
        self,
        home: int,
        config: SystemConfig,
        schedule: Scheduler,
        handler: ServiceHandler,
        stats: DirectoryStats,
    ) -> None:
        self.home = home
        self._config = config
        self._schedule = schedule
        self._handler = handler
        self._stats = stats
        self._queue: Deque[Message] = deque()
        self._parked: Dict[int, List[Message]] = {}
        self._busy_blocks: Set[int] = set()
        #: address interlock: blocks with a message mid-pipeline (service
        #: started, protocol handler not yet run) — a second request for
        #: the same block must not enter the pipeline behind it.
        self._in_service: Dict[int, int] = {}
        self._next_free = 0
        self._dequeue_scheduled = False

    # ------------------------------------------------------------------

    def arrive(self, msg: Message, now: int) -> None:
        """A message reaches this directory's queue."""
        msg.arrival = now
        self._queue.append(msg)
        self._kick(now)

    def begin_transaction(self, block: int) -> None:
        """Mark ``block`` busy: parkable messages defer until complete."""
        self._busy_blocks.add(block)

    def end_transaction(self, block: int, now: int) -> None:
        """Transaction done: release parked messages to the queue head."""
        self._busy_blocks.discard(block)
        self._release_parked(block, now)

    def _release_parked(self, block: int, now: int) -> None:
        if block in self._busy_blocks or block in self._in_service:
            return
        parked = self._parked.pop(block, None)
        if parked:
            for msg in reversed(parked):
                self._queue.appendleft(msg)
        self._kick(now)

    def transaction_pending(self, block: int) -> bool:
        return block in self._busy_blocks

    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------

    def service_time_of(self, msg: Message) -> int:
        """Full service latency of one message class.

        Requests pay protocol request overhead plus the memory access;
        writebacks pay the memory write; control messages (acks, clean
        self-invalidations) pay the control path only.
        """
        cfg = self._config
        if msg.mtype in (MsgType.READ_REQ, MsgType.WRITE_REQ):
            return cfg.request_overhead + cfg.memory_service_time
        if msg.mtype is MsgType.SELF_INVAL:
            return (
                cfg.memory_service_time
                if msg.dirty
                else cfg.control_service_time
            )
        if msg.mtype in DATA_CARRYING:  # WRITEBACK
            return cfg.memory_service_time
        return cfg.control_service_time

    def _kick(self, now: int) -> None:
        if self._dequeue_scheduled or not self._queue:
            return
        at = max(now, self._next_free)
        self._dequeue_scheduled = True
        self._schedule(at, K_DIR_DEQUEUE, self._dequeue)

    def _dequeue(self, now: int) -> None:
        self._dequeue_scheduled = False
        # Park deferred messages without consuming the server.
        while self._queue:
            head = self._queue[0]
            if head.mtype in PARKABLE and (
                head.block in self._busy_blocks
                or head.block in self._in_service
            ):
                self._queue.popleft()
                self._parked.setdefault(head.block, []).append(head)
                continue
            break
        if not self._queue:
            return
        msg = self._queue.popleft()
        start = max(now, self._next_free)
        if start > now:
            # The occupancy window moved while we were scheduled; retry.
            self._queue.appendleft(msg)
            self._kick(now)
            return
        service = self.service_time_of(msg)
        self._next_free = start + self._config.engine_occupancy
        done = start + service
        self._stats.record(queueing=start - msg.arrival, service=service)
        self._in_service[msg.block] = self._in_service.get(msg.block, 0) + 1
        self._schedule(
            done, K_DIR_COMPLETE, lambda t, m=msg: self._complete(m, t)
        )
        self._kick(start)

    def _complete(self, msg: Message, now: int) -> None:
        """Run the protocol handler, then release the address interlock
        (unless the handler opened a transaction on the block)."""
        self._handler(msg, now)
        count = self._in_service.get(msg.block, 0) - 1
        if count <= 0:
            self._in_service.pop(msg.block, None)
        else:
            self._in_service[msg.block] = count
        self._release_parked(msg.block, now)
