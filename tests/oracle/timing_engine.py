"""The reference timing core: the semantics oracle of the timing engine.

Executes a :class:`~repro.trace.program.ProgramSet` on the CC-NUMA model
of :class:`~repro.timing.config.SystemConfig` with one self-invalidation
policy per node, producing a :class:`~repro.timing.stats.TimingReport`
(execution cycles, directory queueing/service averages, self-invalidation
timeliness — Figure 9 and Table 4).

Event model
-----------
A single calendar (heap) of ``(time, seq, callback)`` entries drives
everything. Timestamps are **integer cycles** end to end — every
latency in :class:`~repro.timing.config.SystemConfig` is integral, so
no float accumulation can creep into timestamps (the cross-engine
byte-identity check in ``tests/integration/test_engine_conformance.py``
depends on exact calendar arithmetic). Nodes are in-order: they execute
program steps inline, advancing a local clock, until a coherence miss /
barrier / contended lock blocks them; replies, releases and grants
schedule their continuation. Directory engines schedule their own
dequeue/service completions through the same calendar.

This module is the **reference core** — readable, one closure per
scheduled event, and no part of the shipped package. The engine that
ships, :class:`repro.timing.engine.TimingSimulator`, must produce a
byte-identical :class:`~repro.timing.stats.TimingReport` pickle for
any program; the conformance suite and the equivalence property run
both and compare.

Protocol transactions
---------------------
The directory resolves each request in service order:

* Idle or read-shared fast path — reply directly (2-hop miss,
  416 cycles end to end with the default config);
* write to Shared — invalidate every other sharer, collect acks, then
  reply (3-hop);
* any request to Exclusive — fetch/invalidate the owner, await the
  writeback, then reply (3-hop).

While a block's transaction is in flight, further requests and
self-invalidations for it are parked (see
:mod:`tests.oracle.directory_engine`).

Self-invalidation races are decided by directory arrival order: a
SELF_INVAL serviced first puts the block Idle with the node in the
verification mask (timely — the next request takes the fast path); a
request serviced first finds the stale owner/sharer, pays the base-
protocol cost, and the overtaken SELF_INVAL is dropped and counted
*late* (still a correct prediction — the copy was indeed dead).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import SelfInvalidationPolicy
from repro.core.storage import aggregate_reports
from repro.errors import ProtocolError, SimulationError
from repro.ext.sharing import ConsumerPredictor, ForwardingStats
from repro.protocol.directory import DirectoryEntry
from repro.protocol.states import (
    CacheState,
    DirState,
    MissKind,
    ProtocolVariant,
)
from repro.timing.config import SystemConfig
from repro.timing.engine import (
    EVENT_KIND_NAMES,
    K_DIR_ARRIVE,
    K_FETCH_DOWNGRADE,
    K_FETCH_INVAL,
    K_FORWARD,
    K_INVALIDATE,
    K_REPLY,
    K_RUN,
    K_SI_FIRE,
)
from repro.timing.locks import LockManager
from repro.timing.stats import TimingReport
from repro.trace.events import SyncKind
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    ProgramSet,
)
from tests.oracle.cache import NodeCaches
from tests.oracle.directory import Directory
from tests.oracle.directory_engine import DirectoryEngine
from tests.oracle.messages import Message, MsgType
from tests.oracle.network import Network
from tests.oracle.node import InjectedAccess, NodeContext, NodeStatus

PolicyFactory = Callable[[int], SelfInvalidationPolicy]


@dataclass
class _Transaction:
    """An in-flight 3-hop transaction at the directory."""

    requester: int
    is_write: bool
    pending: int  # outstanding acks / writebacks
    #: DOWNGRADE variant: the owner that keeps a read-only copy if its
    #: writeback confirms it still held one
    downgrading_owner: Optional[int] = None


class ReferenceTimingSimulator:
    """Runs one (workload, policy) pair on the timing model; same
    constructor and ``run`` as :class:`repro.timing.TimingSimulator`.
    """

    def __init__(
        self,
        policy_factory: PolicyFactory,
        config: Optional[SystemConfig] = None,
        variant: ProtocolVariant = ProtocolVariant.INVALIDATE,
        forwarding: bool = False,
        si_fire_delay: int = 0,
    ) -> None:
        if si_fire_delay < 0:
            raise SimulationError(
                f"si_fire_delay must be >= 0, got {si_fire_delay}"
            )
        self._factory = policy_factory
        self._base_config = config or SystemConfig()
        self._cfg_variant = variant
        self._forwarding = forwarding
        #: cycles between a predicted last touch and the SELF_INVAL
        #: leaving the node. 0 is the paper's ideal ("a block
        #: self-invalidates at the earliest possible time"); larger
        #: values model a queued LTP port behind L1 traffic (Section
        #: 3.3) or approximate sync-boundary-style lateness — the
        #: timeliness-sensitivity ablation sweeps this.
        self._si_fire_delay = si_fire_delay
        #: per-kind dispatch counts of the last run — same keys (and,
        #: by construction, same values) as the shipped engine's
        self.event_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(self, programs: ProgramSet) -> TimingReport:
        programs.validate()
        cfg = self._base_config
        if cfg.num_nodes != programs.num_nodes:
            cfg = replace(cfg, num_nodes=programs.num_nodes)
        self._cfg = cfg
        self._programs = programs
        n = cfg.num_nodes

        self._events: List[
            Tuple[int, int, int, Callable[[int], None]]
        ] = []
        self._seq = itertools.count()
        self._counts = [0] * len(EVENT_KIND_NAMES)
        self._last_event_time = 0
        self._ctx = {
            node: NodeContext(node, self._factory(node)) for node in range(n)
        }
        self._report = TimingReport(
            workload=programs.name, policy=self._ctx[0].policy.name
        )
        self._directory = Directory()
        self._caches = NodeCaches(n)
        self._network = Network(cfg)
        self._locks = LockManager()
        self._trans: Dict[int, _Transaction] = {}
        self._dirs = [
            DirectoryEngine(
                home, cfg, self._at, self._service, self._report.directory
            )
            for home in range(n)
        ]
        self._barrier_waiters: List[int] = []
        self._barrier_last_arrival = 0
        self._finished = 0
        self._consumer_pred = (
            ConsumerPredictor() if self._forwarding else None
        )
        if self._forwarding:
            self._report.forwarding = ForwardingStats()

        for node in range(n):
            self._at(0, K_RUN, lambda t, node=node: self._run_node(node, t))
        self._drain()
        self.event_counts = dict(zip(EVENT_KIND_NAMES, self._counts))

        if self._finished != n:
            raise SimulationError(self._stall_diagnostics())
        self._report.per_node_finish = {
            i: c.finish_time for i, c in self._ctx.items()
        }
        self._report.execution_cycles = max(
            c.finish_time for c in self._ctx.values()
        )
        storage = [c.policy.storage_report() for c in self._ctx.values()]
        if any(r.tracked_blocks for r in storage):
            self._report.storage = aggregate_reports(storage)
        return self._report

    def _at(
        self, time: int, kind: int, fn: Callable[[int], None]
    ) -> None:
        # seq breaks ties before the callback, so closures never compare
        heapq.heappush(self._events, (time, next(self._seq), kind, fn))

    def _drain(self) -> None:
        events = self._events
        counts = self._counts
        while events:
            time, _, kind, fn = heapq.heappop(events)
            counts[kind] += 1
            self._last_event_time = time
            fn(time)

    def _stall_diagnostics(self) -> str:
        """Describe a stalled run: the calendar drained with unfinished
        nodes. Reports the last event time and every node's status and
        progress so deadlocks are debuggable from the exception alone."""
        per_node = "; ".join(
            f"node {i}: {c.status.value} at step "
            f"{c.step_index}/{len(self._programs.programs[i].steps)}"
            for i, c in self._ctx.items()
            if c.status is not NodeStatus.FINISHED
        )
        return (
            f"timing run of {self._programs.name!r} stalled — calendar "
            f"drained at t={self._last_event_time} with "
            f"{self._cfg.num_nodes - self._finished} unfinished "
            f"node(s): {per_node}"
        )

    # ------------------------------------------------------------------
    # node execution
    # ------------------------------------------------------------------

    def _run_node(self, node: int, t: int) -> None:
        ctx = self._ctx[node]
        ctx.status = NodeStatus.RUNNING
        steps = self._programs.programs[node].steps
        while True:
            if ctx.injected:
                ia = ctx.injected[0]
                done = self._try_access(
                    node, ia.pc, ia.address, ia.is_write, 0, t
                )
                if done is None:
                    ctx.status = NodeStatus.BLOCKED_MISS
                    return
                t = done
                ctx.injected.popleft()
                if ia.after is not None:
                    ia.after(t)
                continue

            if ctx.step_index >= len(steps):
                ctx.status = NodeStatus.FINISHED
                ctx.finish_time = t
                self._finished += 1
                return

            step = steps[ctx.step_index]
            ctx.step_index += 1

            if isinstance(step, Access):
                done = self._try_access(
                    node, step.pc, step.address, step.is_write, step.work, t
                )
                if done is None:
                    ctx.status = NodeStatus.BLOCKED_MISS
                    return
                t = done
            elif isinstance(step, Barrier):
                self._fire_sync(node, SyncKind.BARRIER, step.barrier_id, t)
                self._arrive_barrier(node, t)
                return
            elif isinstance(step, LockAcquire):
                if self._locks.try_acquire(step.lock_id, node):
                    self._inject_lock_acquire(
                        ctx, step, spins=step.fixed_spins or 1
                    )
                else:
                    ctx.status = NodeStatus.BLOCKED_LOCK
                    ctx.pending_lock = step
                    ctx.lock_wait_mark = self._lock_handoffs(step.lock_id)
                    return
            elif isinstance(step, LockRelease):
                release_step = step

                def after_release(
                    t2: int,
                    node: int = node,
                    step: LockRelease = release_step,
                ) -> None:
                    next_holder = self._locks.release(step.lock_id, node)
                    self._fire_sync(
                        node, SyncKind.LOCK_RELEASE, step.lock_id, t2
                    )
                    if next_holder is not None:
                        self._grant_lock(next_holder, t2)

                ctx.injected.append(
                    InjectedAccess(
                        step.pc, step.address, True, after_release
                    )
                )
            else:  # pragma: no cover - step types are closed
                raise SimulationError(f"unknown step {step!r}")

    def _lock_handoffs(self, lock_id: int) -> int:
        return self._locks._lock(lock_id).handoffs

    def _inject_lock_acquire(
        self, ctx: NodeContext, step: LockAcquire, spins: int
    ) -> None:
        """Queue the test&test&set traffic for a granted acquisition."""
        for _ in range(max(1, spins)):
            ctx.injected.append(
                InjectedAccess(step.spin_pc, step.address, False)
            )

        def after_acquire(t2: int, node: int = ctx.node) -> None:
            self._fire_sync(
                node, SyncKind.LOCK_ACQUIRE, step.lock_id, t2
            )

        ctx.injected.append(
            InjectedAccess(step.pc, step.address, True, after_acquire)
        )

    def _grant_lock(self, node: int, t: int) -> None:
        ctx = self._ctx[node]
        step = ctx.pending_lock
        ctx.pending_lock = None
        if not isinstance(step, LockAcquire):  # pragma: no cover
            raise SimulationError(f"node {node} granted without a step")
        if step.fixed_spins is not None:
            spins = step.fixed_spins
        else:
            # Test&test&set: one re-read per hand-off observed while
            # queued — contention-dependent, like raytrace's workpool.
            spins = max(1, self._lock_handoffs(step.lock_id)
                        - ctx.lock_wait_mark)
        self._inject_lock_acquire(ctx, step, spins)
        self._at(t, K_RUN, lambda t2: self._run_node(node, t2))

    def _arrive_barrier(self, node: int, t: int) -> None:
        ctx = self._ctx[node]
        ctx.status = NodeStatus.BLOCKED_BARRIER
        self._barrier_waiters.append(node)
        self._barrier_last_arrival = max(self._barrier_last_arrival, t)
        if len(self._barrier_waiters) == self._cfg.num_nodes:
            release = self._barrier_last_arrival + self._cfg.barrier_latency
            waiters = self._barrier_waiters
            self._barrier_waiters = []
            self._barrier_last_arrival = 0
            for w in waiters:
                self._at(
                    release, K_RUN, lambda t2, w=w: self._run_node(w, t2)
                )

    # ------------------------------------------------------------------
    # accesses and self-invalidation firing
    # ------------------------------------------------------------------

    def _try_access(
        self,
        node: int,
        pc: int,
        address: int,
        is_write: bool,
        work: int,
        t: int,
    ) -> Optional[int]:
        """Execute one access; return the completion time, or None if it
        missed and the node is now blocked awaiting the reply."""
        cfg = self._cfg
        block = address >> cfg.block_shift
        t_done = t + work + cfg.hit_cost
        self._report.accesses += 1
        cached = self._caches.lookup(node, block)
        if cached is CacheState.EXCLUSIVE or (
            cached is CacheState.SHARED and not is_write
        ):
            self._report.hits += 1
            ctx = self._ctx[node]
            if block in ctx.forwarded:
                ctx.forwarded.discard(block)
                if self._report.forwarding is not None:
                    self._report.forwarding.useful += 1
            self._post_access(node, block, pc, False, None, None, t_done)
            return t_done
        self._report.coherence_misses += 1
        ctx = self._ctx[node]
        if block in ctx.forwarded:
            # first touch is a write: the read-only forward still saved
            # the 3-hop fetch (the upgrade is 2-hop), count it useful
            ctx.forwarded.discard(block)
            if self._report.forwarding is not None:
                self._report.forwarding.useful += 1
        mtype = MsgType.WRITE_REQ if is_write else MsgType.READ_REQ
        self._ctx[node].outstanding = (pc, address, is_write, None)
        self._send_to_dir(
            node, Message(mtype, src=node, block=block, requester=node),
            t_done,
        )
        return None

    def _post_access(
        self,
        node: int,
        block: int,
        pc: int,
        trace_start: bool,
        miss_kind: Optional[MissKind],
        version: Optional[int],
        t: int,
    ) -> None:
        decision = self._ctx[node].policy.on_access(
            block, pc, trace_start, miss_kind, version
        )
        if decision.self_invalidate:
            self._fire_si(node, block, t)

    def _fire_si(self, node: int, block: int, t: int) -> None:
        ctx = self._ctx[node]
        cached = self._caches.lookup(node, block)
        if cached is None or block in ctx.si_inflight:
            return
        if self._si_fire_delay:
            # The LTP port is busy: issue later.  The fire is bound to
            # the *current* copy via its epoch — if the block is
            # externally invalidated (and even re-fetched) inside the
            # delay window, the delayed fire must not evict the new
            # generation the policy never decided for.
            delay = self._si_fire_delay
            epoch = ctx.fire_epoch.get(block, 0)
            self._at(
                t + delay,
                K_SI_FIRE,
                lambda t2: self._fire_si_now(node, block, epoch, t2),
            )
            return
        self._fire_si_now(node, block, ctx.fire_epoch.get(block, 0), t)

    def _fire_si_now(
        self, node: int, block: int, epoch: int, t: int
    ) -> None:
        ctx = self._ctx[node]
        if ctx.fire_epoch.get(block, 0) != epoch:
            # The copy this decision targeted is gone: an external
            # invalidation (or a competing self-invalidation) retired
            # its epoch inside the fire-delay window.
            return
        cached = self._caches.lookup(node, block)
        if cached is None or block in ctx.si_inflight:
            return
        self._evict(node, block)
        ctx.si_inflight.add(block)
        self._report.selfinval.fired += 1
        self._send_to_dir(
            node,
            Message(
                MsgType.SELF_INVAL,
                src=node,
                block=block,
                dirty=cached is CacheState.EXCLUSIVE,
            ),
            t,
        )

    def _fire_sync(
        self, node: int, kind: SyncKind, sync_id: int, t: int
    ) -> None:
        blocks = self._ctx[node].policy.on_sync(kind, sync_id)
        for block in blocks:
            self._fire_si(node, block, t)

    def _evict(self, node: int, block: int) -> None:
        """Drop ``node``'s copy and retire its fire epoch, voiding any
        delayed self-invalidation scheduled against the old copy."""
        self._caches.evict(node, block)
        ctx = self._ctx[node]
        ctx.fire_epoch[block] = ctx.fire_epoch.get(block, 0) + 1

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def _send_to_dir(self, src: int, msg: Message, t: int) -> None:
        home = self._cfg.home_of(msg.block)
        arrival = self._network.send_at(src, t)
        engine = self._dirs[home]
        self._at(arrival, K_DIR_ARRIVE, lambda t2: engine.arrive(msg, t2))

    def _send_to_node(
        self,
        home: int,
        node: int,
        mtype: MsgType,
        block: int,
        t: int,
        version: Optional[int] = None,
        upgrade: bool = False,
    ) -> None:
        arrival = self._network.send_at(home, t)
        if mtype is MsgType.DATA_REPLY:
            self._at(
                arrival,
                K_REPLY,
                lambda t2: self._receive_reply(node, block, version, t2),
            )
        elif mtype is MsgType.INVALIDATE:
            self._at(
                arrival,
                K_INVALIDATE,
                lambda t2: self._receive_invalidate(node, block, t2),
            )
        elif mtype is MsgType.FETCH_INVAL:
            self._at(
                arrival,
                K_FETCH_INVAL,
                lambda t2: self._receive_fetch_inval(node, block, t2),
            )
        elif mtype is MsgType.FETCH_DOWNGRADE:
            self._at(
                arrival,
                K_FETCH_DOWNGRADE,
                lambda t2: self._receive_fetch_downgrade(node, block, t2),
            )
        else:  # pragma: no cover
            raise SimulationError(f"bad node-bound message {mtype}")

    # ------------------------------------------------------------------
    # directory service (called by DirectoryEngine at completion time)
    # ------------------------------------------------------------------

    def _service(self, msg: Message, t: int) -> None:
        ent = self._directory.entry(msg.block)
        if msg.mtype in (MsgType.READ_REQ, MsgType.WRITE_REQ):
            self._service_request(msg, ent, t)
        elif msg.mtype is MsgType.WRITEBACK:
            self._service_writeback(msg, ent, t)
        elif msg.mtype is MsgType.ACK_INV:
            self._service_ack(msg, ent, t)
        elif msg.mtype is MsgType.SELF_INVAL:
            self._service_self_inval(msg, ent, t)
        else:  # pragma: no cover
            raise SimulationError(f"directory got {msg.mtype}")

    def _service_request(
        self, msg: Message, ent: DirectoryEntry, t: int
    ) -> None:
        requester = msg.src
        block = msg.block
        is_write = msg.mtype is MsgType.WRITE_REQ
        home = self._cfg.home_of(block)
        if self._consumer_pred is not None:
            self._consumer_pred.observe_request(block, requester)
        self._resolve_mask(requester, block, ent, is_write)

        if ent.state is DirState.EXCLUSIVE:
            owner = ent.owner
            if owner is None or owner == requester:
                raise ProtocolError(
                    f"request by {requester} on EXCLUSIVE block {block:#x} "
                    f"owned by {owner}"
                )
            downgrade = (
                not is_write
                and self._cfg_variant is ProtocolVariant.DOWNGRADE
            )
            self._trans[block] = _Transaction(
                requester,
                is_write,
                pending=1,
                downgrading_owner=owner if downgrade else None,
            )
            self._dirs[home].begin_transaction(block)
            self._send_to_node(
                home,
                owner,
                MsgType.FETCH_DOWNGRADE if downgrade else
                MsgType.FETCH_INVAL,
                block,
                t,
            )
        elif ent.state is DirState.SHARED and is_write:
            targets = sorted(ent.sharers - {requester})
            if targets:
                self._trans[block] = _Transaction(
                    requester, True, pending=len(targets)
                )
                self._dirs[home].begin_transaction(block)
                for victim in targets:
                    self._send_to_node(
                        home, victim, MsgType.INVALIDATE, block, t
                    )
            else:
                self._grant(ent, block, requester, True, t)
        else:
            self._grant(ent, block, requester, is_write, t)

    def _resolve_mask(
        self,
        requester: int,
        block: int,
        ent: DirectoryEntry,
        is_write: bool,
    ) -> None:
        """Section-4 verification at request-service time.

        Every entry still in the mask was *applied* before this request —
        by construction any correctness it earns here is also timely.
        """
        mask = ent.verification_mask
        if not mask:
            return
        if requester in mask:
            del mask[requester]
            self._report.selfinval.premature += 1
            self._ctx[requester].policy.on_premature(block)
        confirmed = [
            node
            for node, held in mask.items()
            if held is CacheState.EXCLUSIVE or is_write
        ]
        for node in confirmed:
            del mask[node]
            self._report.selfinval.timely_correct += 1
            self._ctx[node].policy.on_verified_correct(block)

    def _grant(
        self,
        ent: DirectoryEntry,
        block: int,
        requester: int,
        is_write: bool,
        t: int,
    ) -> None:
        home = self._cfg.home_of(block)
        version_seen = ent.version
        if is_write:
            ent.state = DirState.EXCLUSIVE
            ent.owner = requester
            ent.sharers.clear()
            ent.version += 1
        else:
            ent.state = DirState.SHARED
            ent.owner = None
            ent.sharers.add(requester)
        self._send_to_node(
            home,
            requester,
            MsgType.DATA_REPLY,
            block,
            t,
            version=version_seen,
        )

    def _service_writeback(
        self, msg: Message, ent: DirectoryEntry, t: int
    ) -> None:
        block = msg.block
        trans = self._trans.pop(block, None)
        if trans is None:
            raise ProtocolError(
                f"writeback for block {block:#x} without a transaction"
            )
        ent.owner = None
        ent.state = DirState.IDLE
        if trans.downgrading_owner is not None and msg.dirty:
            # DOWNGRADE variant: the owner retained a read-only copy
            # (msg.dirty confirms it still held the block when the
            # fetch arrived — a racing self-invalidation clears it).
            ent.state = DirState.SHARED
            ent.sharers.add(trans.downgrading_owner)
        self._grant(ent, block, trans.requester, trans.is_write, t)
        self._dirs[self._cfg.home_of(block)].end_transaction(block, t)

    def _service_ack(
        self, msg: Message, ent: DirectoryEntry, t: int
    ) -> None:
        block = msg.block
        trans = self._trans.get(block)
        if trans is None:
            raise ProtocolError(
                f"stray invalidation ack for block {block:#x}"
            )
        trans.pending -= 1
        if trans.pending > 0:
            return
        del self._trans[block]
        self._grant(ent, block, trans.requester, trans.is_write, t)
        self._dirs[self._cfg.home_of(block)].end_transaction(block, t)

    def _service_self_inval(
        self, msg: Message, ent: DirectoryEntry, t: int
    ) -> None:
        node = msg.src
        block = msg.block
        ctx = self._ctx[node]
        if ent.state is DirState.EXCLUSIVE and ent.owner == node:
            ent.owner = None
            ent.state = DirState.IDLE
            ent.verification_mask[node] = CacheState.EXCLUSIVE
            ctx.si_inflight.discard(block)
            self._maybe_forward(node, block, ent, t)
        elif ent.state is DirState.SHARED and node in ent.sharers:
            ent.sharers.discard(node)
            if not ent.sharers:
                ent.state = DirState.IDLE
            ent.verification_mask[node] = CacheState.SHARED
            ctx.si_inflight.discard(block)
            self._maybe_forward(node, block, ent, t)
        else:
            # Overtaken: the block moved on first. The prediction was
            # still right (the copy was dead) — correct but late.
            ctx.si_inflight.discard(block)
            self._report.selfinval.late_correct += 1
            ctx.policy.on_verified_correct(block)

    # ------------------------------------------------------------------
    # node-bound message handling
    # ------------------------------------------------------------------

    def _receive_reply(
        self, node: int, block: int, version: Optional[int], t: int
    ) -> None:
        ctx = self._ctx[node]
        if ctx.outstanding is None:
            raise SimulationError(
                f"node {node} got a reply with no outstanding miss"
            )
        pc, _address, is_write, _ = ctx.outstanding
        ctx.outstanding = None
        prev = self._caches.lookup(node, block)
        trace_start = prev is None
        if prev is CacheState.SHARED and is_write:
            miss_kind = MissKind.UPGRADE
        elif is_write:
            miss_kind = MissKind.WRITE_FETCH
        else:
            miss_kind = MissKind.READ_FETCH
        self._caches.install(
            node,
            block,
            CacheState.EXCLUSIVE if is_write else CacheState.SHARED,
        )
        t_done = t + self._cfg.reply_overhead
        self._post_access(
            node, block, pc, trace_start, miss_kind, version, t_done
        )
        if ctx.injected:
            ia = ctx.injected.popleft()
            if ia.after is not None:
                ia.after(t_done)
        self._run_node(node, t_done)

    def _receive_invalidate(self, node: int, block: int, t: int) -> None:
        ctx = self._ctx[node]
        cached = self._caches.lookup(node, block)
        if cached is not None:
            self._evict(node, block)
            if block in ctx.forwarded:
                # untouched forwarded copy died: the policy never saw
                # the block, so no learning event either
                ctx.forwarded.discard(block)
                if self._report.forwarding is not None:
                    self._report.forwarding.wasted += 1
            else:
                ctx.policy.on_invalidation(block)
            self._report.external_invalidations += 1
        elif block not in ctx.si_inflight and not self._is_fetching(
            ctx, block
        ):
            raise ProtocolError(
                f"invalidate at node {node} for uncached block {block:#x}"
            )
        self._send_to_dir(
            node,
            Message(MsgType.ACK_INV, src=node, block=block),
            t + self._cfg.node_inval_process,
        )

    def _receive_fetch_inval(self, node: int, block: int, t: int) -> None:
        ctx = self._ctx[node]
        cached = self._caches.lookup(node, block)
        if cached is not None:
            self._evict(node, block)
            ctx.policy.on_invalidation(block)
            self._report.external_invalidations += 1
        elif block not in ctx.si_inflight:
            raise ProtocolError(
                f"fetch-inval at node {node} for uncached block {block:#x}"
            )
        # Data comes from the cache or, after a racing self-invalidation,
        # from the node's write buffer — either way a writeback flows.
        self._send_to_dir(
            node,
            Message(MsgType.WRITEBACK, src=node, block=block),
            t + self._cfg.node_inval_process,
        )

    def _maybe_forward(
        self, holder: int, block: int, ent: DirectoryEntry, t: int
    ) -> None:
        """Forwarding extension: push a read-only copy of a just
        self-invalidated block to the predicted next consumer.

        The forward counts as the consumer's (implicit) read for
        Section-4 verification, so the self-invalidation that triggered
        it is verified correct immediately — the block demonstrably
        moved on.
        """
        if self._consumer_pred is None:
            return
        consumer = self._consumer_pred.predict_consumer(block, holder)
        if (
            consumer is None
            or consumer in ent.verification_mask
            or self._caches.lookup(consumer, block) is not None
            or self._is_fetching(self._ctx[consumer], block)
        ):
            return
        self._resolve_mask(consumer, block, ent, is_write=False)
        ent.state = DirState.SHARED
        ent.owner = None
        ent.sharers.add(consumer)
        self._consumer_pred.observe_request(block, consumer)
        assert self._report.forwarding is not None
        self._report.forwarding.forwards += 1
        home = self._cfg.home_of(block)
        arrival = self._network.send_at(home, t)
        self._at(
            arrival,
            K_FORWARD,
            lambda t2: self._receive_forward(consumer, block, t2),
        )

    def _receive_forward(self, node: int, block: int, t: int) -> None:
        ctx = self._ctx[node]
        if self._caches.lookup(node, block) is not None:
            return
        self._caches.install(node, block, CacheState.SHARED)
        ctx.forwarded.add(block)

    def _receive_fetch_downgrade(
        self, node: int, block: int, t: int
    ) -> None:
        """DOWNGRADE variant: write back, keep a read-only copy. Not a
        learning event — the node's trace continues across it."""
        ctx = self._ctx[node]
        cached = self._caches.lookup(node, block)
        retained = cached is not None
        if retained:
            self._caches.install(node, block, CacheState.SHARED)
        elif block not in ctx.si_inflight:
            raise ProtocolError(
                f"downgrade at node {node} for uncached block {block:#x}"
            )
        # msg.dirty doubles as the "owner retained a copy" confirmation.
        self._send_to_dir(
            node,
            Message(
                MsgType.WRITEBACK, src=node, block=block, dirty=retained
            ),
            t + self._cfg.node_inval_process,
        )

    def _is_fetching(self, ctx: NodeContext, block: int) -> bool:
        """True when the node's outstanding miss targets ``block`` (an
        upgrade whose read-only copy was invalidated while parked)."""
        if ctx.outstanding is None:
            return False
        _pc, address, _w, _ = ctx.outstanding
        return (address >> self._cfg.block_shift) == block
