"""The discrete-event timing engine.

:class:`TimingSimulator` executes a
:class:`~repro.trace.program.ProgramSet` on the CC-NUMA model of
:class:`~repro.timing.config.SystemConfig` with one self-invalidation
policy per node, producing a :class:`~repro.timing.stats.TimingReport`
(execution cycles, directory queueing/service averages,
self-invalidation timeliness — Figure 9 and Table 4). Timestamps are
**integer cycles** end to end: every latency in the config is
integral, so no float accumulation can creep into the calendar.

The simulation is structured for speed:

* **Typed event calendar** — a heap of *distinct integer timestamps*
  over FIFO buckets of ``(kind, a, b, c)`` records, dispatched through
  one ``while`` loop with integer kind codes instead of a closure per
  message. Within a timestamp, bucket order is push order — the same
  total order the reference core gets from its global push counter —
  so the two cores process events in exactly the same order while the
  heap never compares anything but ints.
* **Dense block ids** — every address in the program set is interned to
  a dense ``bid`` at compile time; per-node cache state and fire epochs
  are flat arrays indexed ``[node][bid]``, directory state is parallel
  lists indexed ``[bid]``, and every policy is bound to the id -> block
  table and called with ids. No dict-of-dataclass lookups on the hot
  path.
* **Interned transitions** — protocol message types, cache states and
  directory states are small ints; messages are 5-slot lists, not
  dataclasses.
* **Compiled once** — :func:`compile_programs` validates a ProgramSet
  and compiles its steps to tuples over dense block ids, holding each
  distinct step tuple once. The compile is memoized per process on the
  ProgramSet object and block size
  (:func:`~repro.trace.program.compiled_once`, the memo the accuracy
  stream uses), so every later run on the same trace reuses it. A run
  treats the compiled lists and the block and home tables as
  read-only; policies bind to the shared block table.

Correctness contract: for any program the :class:`TimingReport` pickle
must be **byte-identical** to the one the readable reference core in
``tests/oracle/`` produces (``tests/integration/test_engine_conformance.py``
and ``tests/property/test_engine_equivalence_props.py``). That works
because every push to the calendar, every policy callback, and every
stats increment here corresponds 1:1 — in program order — to one in
the reference core; only the representation differs. A change to the
simulated behaviour changes both, and
``tests/integration/test_report_digests.py`` names the specs it moved.

The per-kind event counts of the last run are exposed as
``event_counts`` for ``repro profile``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.base import SelfInvalidationPolicy
from repro.core.storage import aggregate_reports
from repro.errors import ProtocolError, SimulationError
from repro.ext.sharing import ConsumerPredictor, ForwardingStats
from repro.protocol.states import MissKind, ProtocolVariant
from repro.timing.config import SystemConfig
from repro.timing.stats import TimingReport
from repro.trace.events import SyncKind
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    ProgramSet,
    compiled_once,
    validate_once,
)
from repro.timing.locks import LockManager

PolicyFactory = Callable[[int], SelfInvalidationPolicy]

# -- event kinds --------------------------------------------------------
# Calendar records are (kind, a, b, c): a=node/home, b=bid/msg,
# c=epoch/version depending on kind. ``event_counts`` counts dispatches
# per kind; the reference core in tests/oracle/ tags its closures with
# the same codes, and its counts are equal because both inline the same
# operations (immediate si fires, post-reply node resumption) instead
# of scheduling them.
K_RUN = 0  # node resumes executing its program
K_SI_FIRE = 1  # delayed self-invalidation fires
K_DIR_ARRIVE = 2  # message arrives at a directory home
K_DIR_DEQUEUE = 3  # directory pops its serialization queue
K_DIR_COMPLETE = 4  # directory finishes processing a message
K_REPLY = 5  # data reply lands at the requester
K_INVALIDATE = 6  # invalidation lands at a sharer
K_FETCH_INVAL = 7  # owner writeback-invalidate lands
K_FETCH_DOWNGRADE = 8  # owner downgrade lands
K_FORWARD = 9  # predicted-consumer forward lands

EVENT_KIND_NAMES = (
    "run_node",
    "si_fire",
    "dir_arrive",
    "dir_dequeue",
    "dir_complete",
    "reply",
    "invalidate",
    "fetch_inval",
    "fetch_downgrade",
    "forward",
)

# -- message type codes (messages are [mtype, src, bid, dirty, arrival])
M_READ = 0
M_WRITE = 1
M_WRITEBACK = 2
M_ACK_INV = 3
M_SELF_INVAL = 4

# -- cache / directory state codes -------------------------------------
C_NONE = 0
C_SHARED = 1
C_EXCLUSIVE = 2
D_IDLE = 0
D_SHARED = 1
D_EXCLUSIVE = 2

# -- compiled step opcodes ---------------------------------------------
OP_ACCESS = 0  # (0, pc, bid, is_write, work)
OP_BARRIER = 1  # (1, barrier_id)
OP_ACQUIRE = 2  # (2, lock_id, bid, pc, spin_pc, fixed_spins|-1)
OP_RELEASE = 3  # (3, lock_id, bid, pc)

# injected accesses are (pc, bid, is_write, after, lock_id);
# after: 0 = none, 1 = lock release, 2 = lock acquire
_A_NONE = 0
_A_RELEASE = 1
_A_ACQUIRE = 2

_STATUS_NAMES = (
    "running",
    "blocked_miss",
    "blocked_barrier",
    "blocked_lock",
    "finished",
)
_RUNNING, _BLOCKED_MISS, _BLOCKED_BARRIER, _BLOCKED_LOCK, _FINISHED = range(
    5
)


def compile_programs(
    programs: ProgramSet, block_shift: int, num_nodes: int
) -> Tuple[List[List[tuple]], List[int], List[int]]:
    """Validate ``programs`` (once per object, :func:`validate_once`)
    and compile it for the engine.

    Returns each node's steps as opcode tuples over dense block ids
    (see the ``OP_*`` layouts), the id -> block number table and the
    id -> home node table. Ids are assigned in order of first touch,
    node by node. Equal step tuples are one object, whether or not the
    ProgramSet's own steps are shared, so a memoized compile holds each
    distinct step once.
    """
    validate_once(programs)
    bid_of: Dict[int, int] = {}
    block_of: List[int] = []
    home_of: List[int] = []

    def intern(address: int) -> int:
        block = address >> block_shift
        bid = bid_of.get(block)
        if bid is None:
            bid = len(block_of)
            bid_of[block] = bid
            block_of.append(block)
            home_of.append(block % num_nodes)
        return bid

    first: Dict[tuple, tuple] = {}
    share = first.setdefault
    compiled: List[List[tuple]] = []
    for node in range(num_nodes):
        steps: List[tuple] = []
        for step in programs.programs[node].steps:
            cls = step.__class__
            if cls is Access:
                op = (
                    OP_ACCESS,
                    step.pc,
                    intern(step.address),
                    step.is_write,
                    step.work,
                )
            elif cls is Barrier:
                op = (OP_BARRIER, step.barrier_id)
            elif cls is LockAcquire:
                op = (
                    OP_ACQUIRE,
                    step.lock_id,
                    intern(step.address),
                    step.pc,
                    step.spin_pc,
                    -1 if step.fixed_spins is None else step.fixed_spins,
                )
            elif cls is LockRelease:
                op = (OP_RELEASE, step.lock_id, intern(step.address), step.pc)
            else:  # pragma: no cover - step types are closed
                raise SimulationError(f"unknown step {step!r}")
            steps.append(share(op, op))
        compiled.append(steps)
    return compiled, block_of, home_of


class TimingSimulator:
    """Runs one (workload, policy) pair on the timing model.

    ``si_fire_delay`` is the number of cycles between a predicted last
    touch and the SELF_INVAL leaving the node. 0 is the paper's ideal
    ("a block self-invalidates at the earliest possible time"); larger
    values model a queued LTP port behind L1 traffic (Section 3.3) or
    approximate sync-boundary-style lateness — the timeliness
    ablation sweeps it.
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
        self._downgrade = variant is ProtocolVariant.DOWNGRADE
        self._forwarding = forwarding
        self._si_fire_delay = si_fire_delay
        #: per-kind dispatch counts of the last run (profile counters)
        self.event_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(self, programs: ProgramSet) -> TimingReport:
        cfg = self._base_config
        if cfg.num_nodes != programs.num_nodes:
            cfg = replace(cfg, num_nodes=programs.num_nodes)
        self._cfg = cfg
        self._programs = programs
        n = cfg.num_nodes

        # shared with every other run on this ProgramSet: read-only
        self._steps, self._block_of, self._home_of = compiled_once(
            programs,
            ("timing", cfg.block_shift, n),
            lambda: compile_programs(programs, cfg.block_shift, n),
        )
        nblocks = len(self._block_of)

        self._timeheap: List[int] = []
        self._buckets: Dict[int, list] = {}
        self._last_event_time = 0
        self._counts = [0] * len(EVENT_KIND_NAMES)

        # node state (parallel arrays)
        self._policies = [self._factory(node) for node in range(n)]
        for policy in self._policies:
            policy.bind(self._block_of)
        self._status = [_RUNNING] * n
        self._step_index = [0] * n
        self._injected: List[deque] = [deque() for _ in range(n)]
        self._outstanding: List[Optional[Tuple[int, int, bool]]] = (
            [None] * n
        )
        self._si_inflight: List[Set[int]] = [set() for _ in range(n)]
        self._forwarded: List[Set[int]] = [set() for _ in range(n)]
        self._lock_wait_mark = [0] * n
        self._pending_lock: List[Optional[tuple]] = [None] * n
        self._finish = [0] * n
        self._finished = 0

        # per-node per-block state (flat arrays over dense bids)
        self._cache = [bytearray(nblocks) for _ in range(n)]
        self._epochs = [[0] * nblocks for _ in range(n)]

        # directory state (parallel lists over dense bids)
        self._dir_state = bytearray(nblocks)
        self._dir_owner = [-1] * nblocks
        self._dir_version = [0] * nblocks
        self._dir_sharers: List[Set[int]] = [set() for _ in range(nblocks)]
        self._dir_mask: List[Dict[int, int]] = [
            {} for _ in range(nblocks)
        ]
        self._trans: Dict[int, list] = {}

        # per-home directory engine state
        self._dq_queue: List[deque] = [deque() for _ in range(n)]
        self._dq_parked: List[Dict[int, list]] = [{} for _ in range(n)]
        self._dq_busy: List[Set[int]] = [set() for _ in range(n)]
        self._dq_insvc: List[Dict[int, int]] = [{} for _ in range(n)]
        self._dq_free = [0] * n
        self._dq_sched = [False] * n

        # network interfaces (+ hoisted config scalars for the hot path)
        self._ni_free = [0] * n
        self._ni_overhead = cfg.ni_send_overhead
        self._net_latency = cfg.network_latency
        self._occupancy = cfg.engine_occupancy
        self._hit_cost = cfg.hit_cost
        self._reply_overhead = cfg.reply_overhead

        # locks / barriers
        self._locks = LockManager()
        self._barrier_waiters: List[int] = []
        self._barrier_last_arrival = 0

        # stats accumulators
        self._n_accesses = 0
        self._n_hits = 0
        self._n_misses = 0
        self._n_ext_inval = 0
        self._dir_msgs = 0
        self._dir_queueing = 0
        self._dir_service = 0
        self._si_fired = 0
        self._si_timely = 0
        self._si_late = 0
        self._si_premature = 0
        self._fwd_forwards = 0
        self._fwd_useful = 0
        self._fwd_wasted = 0
        self._consumer_pred = (
            ConsumerPredictor() if self._forwarding else None
        )

        for node in range(n):
            self._at(0, K_RUN, node)
        self._drain()

        if self._finished != n:
            raise SimulationError(self._stall_diagnostics())
        self.event_counts = {
            name: count
            for name, count in zip(EVENT_KIND_NAMES, self._counts)
        }
        return self._build_report()

    def _build_report(self) -> TimingReport:
        report = TimingReport(
            workload=self._programs.name, policy=self._policies[0].name
        )
        report.accesses = self._n_accesses
        report.hits = self._n_hits
        report.coherence_misses = self._n_misses
        report.external_invalidations = self._n_ext_inval
        d = report.directory
        d.messages = self._dir_msgs
        d.queueing_cycles += self._dir_queueing
        d.service_cycles += self._dir_service
        s = report.selfinval
        s.fired = self._si_fired
        s.timely_correct = self._si_timely
        s.late_correct = self._si_late
        s.premature = self._si_premature
        if self._forwarding:
            fwd = ForwardingStats()
            fwd.forwards = self._fwd_forwards
            fwd.useful = self._fwd_useful
            fwd.wasted = self._fwd_wasted
            report.forwarding = fwd
        n = self._cfg.num_nodes
        report.per_node_finish = {i: self._finish[i] for i in range(n)}
        report.execution_cycles = max(self._finish)
        storage = [p.storage_report() for p in self._policies]
        if any(r.tracked_blocks for r in storage):
            report.storage = aggregate_reports(storage)
        return report

    # ------------------------------------------------------------------
    # calendar
    # ------------------------------------------------------------------

    def _at(self, time: int, kind: int, a: int, b=0, c=None) -> None:
        """Schedule ``(kind, a, b, c)`` at ``time``.

        The calendar is a heap of *distinct* timestamps over FIFO
        buckets. Within one timestamp events run in push order — the
        same total order the reference core gets from its global push
        counter — while the heap never compares anything but ints.
        """
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(kind, a, b, c)]
            heappush(self._timeheap, time)
        else:
            bucket.append((kind, a, b, c))

    def _drain(self) -> None:
        # The one hot loop. The directory engine's arrive/dequeue/
        # complete cycle (two events per message) is inlined here, and
        # local aliases shave the per-event attribute lookups that
        # would otherwise dominate the dispatch. A bucket popped from
        # the dict never grows: same-time events scheduled *during* the
        # bucket re-enter through a fresh bucket + heap entry, which
        # the heap yields next — push order is preserved end to end.
        timeheap = self._timeheap
        buckets = self._buckets
        counts = self._counts
        dq_queue = self._dq_queue
        dq_free = self._dq_free
        dq_sched = self._dq_sched
        dq_busy = self._dq_busy
        dq_insvc = self._dq_insvc
        dq_parked = self._dq_parked
        receive_reply = self._receive_reply
        run_node = self._run_node
        occupancy = self._occupancy
        cfg = self._cfg
        svc_request = cfg.request_overhead + cfg.memory_service_time
        svc_memory = cfg.memory_service_time
        svc_control = cfg.control_service_time
        dir_msgs = 0
        dir_queueing = 0
        dir_service = 0
        while timeheap:
            time = heappop(timeheap)
            self._last_event_time = time
            for kind, a, b, c in buckets.pop(time):
                counts[kind] += 1
                if kind == K_DIR_ARRIVE:
                    b[4] = time
                    dq_queue[a].append(b)
                    if not dq_sched[a]:
                        dq_sched[a] = True
                        free = dq_free[a]
                        tgt = time if time > free else free
                        bucket = buckets.get(tgt)
                        if bucket is None:
                            buckets[tgt] = [(K_DIR_DEQUEUE, a, 0, None)]
                            heappush(timeheap, tgt)
                        else:
                            bucket.append((K_DIR_DEQUEUE, a, 0, None))
                elif kind == K_DIR_DEQUEUE:
                    dq_sched[a] = False
                    queue = dq_queue[a]
                    busy = dq_busy[a]
                    insvc = dq_insvc[a]
                    while queue:
                        head = queue[0]
                        mtype = head[0]
                        # PARKABLE: READ_REQ, WRITE_REQ, SELF_INVAL
                        if (
                            mtype <= M_WRITE or mtype == M_SELF_INVAL
                        ) and (head[2] in busy or head[2] in insvc):
                            queue.popleft()
                            parked = dq_parked[a]
                            lst = parked.get(head[2])
                            if lst is None:
                                parked[head[2]] = [head]
                            else:
                                lst.append(head)
                            continue
                        break
                    if not queue:
                        continue
                    free = dq_free[a]
                    if free > time:
                        # The occupancy window moved while we were
                        # scheduled; retry when it opens.
                        dq_sched[a] = True
                        bucket = buckets.get(free)
                        if bucket is None:
                            buckets[free] = [
                                (K_DIR_DEQUEUE, a, 0, None)
                            ]
                            heappush(timeheap, free)
                        else:
                            bucket.append((K_DIR_DEQUEUE, a, 0, None))
                        continue
                    msg = queue.popleft()
                    mtype = msg[0]
                    if mtype <= M_WRITE:
                        service = svc_request
                    elif mtype == M_SELF_INVAL:
                        service = svc_memory if msg[3] else svc_control
                    elif mtype == M_WRITEBACK:
                        service = svc_memory
                    else:
                        service = svc_control
                    dq_free[a] = time + occupancy
                    dir_msgs += 1
                    dir_queueing += time - msg[4]
                    dir_service += service
                    bid = msg[2]
                    insvc[bid] = insvc.get(bid, 0) + 1
                    tgt = time + service
                    bucket = buckets.get(tgt)
                    if bucket is None:
                        buckets[tgt] = [(K_DIR_COMPLETE, a, msg, None)]
                        heappush(timeheap, tgt)
                    else:
                        bucket.append((K_DIR_COMPLETE, a, msg, None))
                    if queue:
                        dq_sched[a] = True
                        tgt = time + occupancy
                        bucket = buckets.get(tgt)
                        if bucket is None:
                            buckets[tgt] = [
                                (K_DIR_DEQUEUE, a, 0, None)
                            ]
                            heappush(timeheap, tgt)
                        else:
                            bucket.append((K_DIR_DEQUEUE, a, 0, None))
                elif kind == K_DIR_COMPLETE:
                    mtype = b[0]
                    if mtype <= M_WRITE:
                        self._service_request(b, time)
                    elif mtype == M_WRITEBACK:
                        self._service_writeback(b, time)
                    elif mtype == M_ACK_INV:
                        self._service_ack(b, time)
                    else:  # M_SELF_INVAL
                        self._service_self_inval(b, time)
                    bid = b[2]
                    insvc = dq_insvc[a]
                    count = insvc.get(bid, 0) - 1
                    if count <= 0:
                        insvc.pop(bid, None)
                    else:
                        insvc[bid] = count
                    if bid not in dq_busy[a] and bid not in insvc:
                        parked = dq_parked[a]
                        if parked:
                            lst = parked.pop(bid, None)
                            if lst:
                                queue = dq_queue[a]
                                for m in reversed(lst):
                                    queue.appendleft(m)
                        if not dq_sched[a] and dq_queue[a]:
                            dq_sched[a] = True
                            free = dq_free[a]
                            tgt = time if time > free else free
                            bucket = buckets.get(tgt)
                            if bucket is None:
                                buckets[tgt] = [
                                    (K_DIR_DEQUEUE, a, 0, None)
                                ]
                                heappush(timeheap, tgt)
                            else:
                                bucket.append(
                                    (K_DIR_DEQUEUE, a, 0, None)
                                )
                elif kind == K_REPLY:
                    receive_reply(a, b, c, time)
                elif kind == K_RUN:
                    run_node(a, time)
                elif kind == K_INVALIDATE:
                    self._receive_invalidate(a, b, time)
                elif kind == K_SI_FIRE:
                    self._fire_si_now(a, b, c, time)
                elif kind == K_FETCH_INVAL:
                    self._receive_fetch_inval(a, b, time)
                elif kind == K_FETCH_DOWNGRADE:
                    self._receive_fetch_downgrade(a, b, time)
                else:  # K_FORWARD
                    self._receive_forward(a, b, time)
        self._dir_msgs += dir_msgs
        self._dir_queueing += dir_queueing
        self._dir_service += dir_service

    def _stall_diagnostics(self) -> str:
        per_node = "; ".join(
            f"node {i}: {_STATUS_NAMES[self._status[i]]} at step "
            f"{self._step_index[i]}/{len(self._programs.programs[i].steps)}"
            for i in range(self._cfg.num_nodes)
            if self._status[i] != _FINISHED
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
        self._status[node] = _RUNNING
        steps = self._steps[node]
        nsteps = len(steps)
        injected = self._injected[node]
        step_index = self._step_index
        while True:
            if injected:
                ia = injected[0]
                done = self._try_access(node, ia[0], ia[1], ia[2], 0, t)
                if done is None:
                    self._status[node] = _BLOCKED_MISS
                    return
                t = done
                injected.popleft()
                if ia[3]:
                    self._after_injected(node, ia, t)
                continue

            i = step_index[node]
            if i >= nsteps:
                self._status[node] = _FINISHED
                self._finish[node] = t
                self._finished += 1
                return

            step = steps[i]
            step_index[node] = i + 1
            op = step[0]

            if op == OP_ACCESS:
                done = self._try_access(
                    node, step[1], step[2], step[3], step[4], t
                )
                if done is None:
                    self._status[node] = _BLOCKED_MISS
                    return
                t = done
            elif op == OP_BARRIER:
                self._fire_sync(node, SyncKind.BARRIER, step[1], t)
                self._arrive_barrier(node, t)
                return
            elif op == OP_ACQUIRE:
                if self._locks.try_acquire(step[1], node):
                    fs = step[5]
                    self._inject_lock_acquire(
                        node, step, fs if fs > 0 else 1
                    )
                else:
                    self._status[node] = _BLOCKED_LOCK
                    self._pending_lock[node] = step
                    self._lock_wait_mark[node] = self._locks._lock(
                        step[1]
                    ).handoffs
                    return
            else:  # OP_RELEASE
                injected.append(
                    (step[3], step[2], True, _A_RELEASE, step[1])
                )

    def _after_injected(self, node: int, ia: tuple, t: int) -> None:
        if ia[3] == _A_RELEASE:
            lock_id = ia[4]
            next_holder = self._locks.release(lock_id, node)
            self._fire_sync(node, SyncKind.LOCK_RELEASE, lock_id, t)
            if next_holder is not None:
                self._grant_lock(next_holder, t)
        else:  # _A_ACQUIRE
            self._fire_sync(node, SyncKind.LOCK_ACQUIRE, ia[4], t)

    def _inject_lock_acquire(
        self, node: int, step: tuple, spins: int
    ) -> None:
        injected = self._injected[node]
        spin = (step[4], step[2], False, _A_NONE, 0)
        for _ in range(spins if spins > 1 else 1):
            injected.append(spin)
        injected.append((step[3], step[2], True, _A_ACQUIRE, step[1]))

    def _grant_lock(self, node: int, t: int) -> None:
        step = self._pending_lock[node]
        self._pending_lock[node] = None
        if step is None:  # pragma: no cover
            raise SimulationError(f"node {node} granted without a step")
        fs = step[5]
        if fs >= 0:
            spins = fs
        else:
            spins = self._locks._lock(step[1]).handoffs - (
                self._lock_wait_mark[node]
            )
            if spins < 1:
                spins = 1
        self._inject_lock_acquire(node, step, spins)
        self._at(t, K_RUN, node)

    def _arrive_barrier(self, node: int, t: int) -> None:
        self._status[node] = _BLOCKED_BARRIER
        self._barrier_waiters.append(node)
        if t > self._barrier_last_arrival:
            self._barrier_last_arrival = t
        if len(self._barrier_waiters) == self._cfg.num_nodes:
            release = (
                self._barrier_last_arrival + self._cfg.barrier_latency
            )
            waiters = self._barrier_waiters
            self._barrier_waiters = []
            self._barrier_last_arrival = 0
            for w in waiters:
                self._at(release, K_RUN, w)

    # ------------------------------------------------------------------
    # accesses and self-invalidation firing
    # ------------------------------------------------------------------

    def _try_access(
        self, node: int, pc: int, bid: int, is_write: bool, work: int,
        t: int,
    ) -> Optional[int]:
        t_done = t + work + self._hit_cost
        self._n_accesses += 1
        cached = self._cache[node][bid]
        if cached == C_EXCLUSIVE or (cached == C_SHARED and not is_write):
            self._n_hits += 1
            forwarded = self._forwarded[node]
            if bid in forwarded:
                forwarded.discard(bid)
                self._fwd_useful += 1
            if self._policies[node].on_access(bid, pc, False, None, None):
                self._fire_si(node, bid, t_done)
            return t_done
        self._n_misses += 1
        forwarded = self._forwarded[node]
        if bid in forwarded:
            forwarded.discard(bid)
            self._fwd_useful += 1
        self._outstanding[node] = (pc, bid, is_write)
        free = self._ni_free[node]
        inject = (t_done if t_done > free else free) + self._ni_overhead
        self._ni_free[node] = inject
        arrival = inject + self._net_latency
        event = (
            K_DIR_ARRIVE,
            self._home_of[bid],
            [M_WRITE if is_write else M_READ, node, bid, False, 0],
            None,
        )
        buckets = self._buckets
        bucket = buckets.get(arrival)
        if bucket is None:
            buckets[arrival] = [event]
            heappush(self._timeheap, arrival)
        else:
            bucket.append(event)
        return None

    def _fire_si(self, node: int, bid: int, t: int) -> None:
        cached = self._cache[node][bid]
        if not cached or bid in self._si_inflight[node]:
            return
        if self._si_fire_delay:
            self._at(
                t + self._si_fire_delay,
                K_SI_FIRE,
                node,
                bid,
                self._epochs[node][bid],
            )
            return
        # immediate fire: the guards above are exactly _fire_si_now's,
        # so fire inline without the epoch round-trip
        self._cache[node][bid] = C_NONE
        self._epochs[node][bid] += 1
        self._si_inflight[node].add(bid)
        self._si_fired += 1
        free = self._ni_free[node]
        inject = (t if t > free else free) + self._ni_overhead
        self._ni_free[node] = inject
        arrival = inject + self._net_latency
        event = (
            K_DIR_ARRIVE,
            self._home_of[bid],
            [M_SELF_INVAL, node, bid, cached == C_EXCLUSIVE, 0],
            None,
        )
        buckets = self._buckets
        bucket = buckets.get(arrival)
        if bucket is None:
            buckets[arrival] = [event]
            heappush(self._timeheap, arrival)
        else:
            bucket.append(event)

    def _fire_si_now(
        self, node: int, bid: int, epoch: int, t: int
    ) -> None:
        if self._epochs[node][bid] != epoch:
            return
        cached = self._cache[node][bid]
        if not cached or bid in self._si_inflight[node]:
            return
        self._cache[node][bid] = C_NONE
        self._epochs[node][bid] = epoch + 1
        self._si_inflight[node].add(bid)
        self._si_fired += 1
        free = self._ni_free[node]
        inject = (t if t > free else free) + self._ni_overhead
        self._ni_free[node] = inject
        arrival = inject + self._net_latency
        event = (
            K_DIR_ARRIVE,
            self._home_of[bid],
            [M_SELF_INVAL, node, bid, cached == C_EXCLUSIVE, 0],
            None,
        )
        buckets = self._buckets
        bucket = buckets.get(arrival)
        if bucket is None:
            buckets[arrival] = [event]
            heappush(self._timeheap, arrival)
        else:
            bucket.append(event)

    def _fire_sync(
        self, node: int, kind: SyncKind, sync_id: int, t: int
    ) -> None:
        for bid in self._policies[node].on_sync(kind, sync_id):
            self._fire_si(node, bid, t)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def _send_to_dir(self, src: int, msg: list, t: int) -> None:
        ni_free = self._ni_free
        free = ni_free[src]
        inject = (t if t > free else free) + self._ni_overhead
        ni_free[src] = inject
        arrival = inject + self._net_latency
        buckets = self._buckets
        bucket = buckets.get(arrival)
        event = (K_DIR_ARRIVE, self._home_of[msg[2]], msg, None)
        if bucket is None:
            buckets[arrival] = [event]
            heappush(self._timeheap, arrival)
        else:
            bucket.append(event)

    def _send_to_node(
        self, home: int, node: int, kind: int, bid: int, t: int, c=None
    ) -> None:
        ni_free = self._ni_free
        free = ni_free[home]
        inject = (t if t > free else free) + self._ni_overhead
        ni_free[home] = inject
        arrival = inject + self._net_latency
        buckets = self._buckets
        bucket = buckets.get(arrival)
        if bucket is None:
            buckets[arrival] = [(kind, node, bid, c)]
            heappush(self._timeheap, arrival)
        else:
            bucket.append((kind, node, bid, c))

    # ------------------------------------------------------------------
    # directory engine (queue + two-stage pipelined server per home;
    # the dequeue/complete cycle itself is inlined in _drain)
    # ------------------------------------------------------------------

    def _kick(self, home: int, now: int) -> None:
        if self._dq_sched[home] or not self._dq_queue[home]:
            return
        free = self._dq_free[home]
        self._dq_sched[home] = True
        self._at(now if now > free else free, K_DIR_DEQUEUE, home)

    def _release_parked(self, home: int, bid: int, now: int) -> None:
        if bid in self._dq_busy[home] or bid in self._dq_insvc[home]:
            return
        parked = self._dq_parked[home].pop(bid, None)
        if parked:
            queue = self._dq_queue[home]
            for msg in reversed(parked):
                queue.appendleft(msg)
        self._kick(home, now)

    def _end_transaction(self, home: int, bid: int, now: int) -> None:
        self._dq_busy[home].discard(bid)
        self._release_parked(home, bid, now)

    # ------------------------------------------------------------------
    # directory service (at service-completion time)
    # ------------------------------------------------------------------

    def _service_request(self, msg: list, t: int) -> None:
        requester = msg[1]
        bid = msg[2]
        is_write = msg[0] == M_WRITE
        home = self._home_of[bid]
        if self._consumer_pred is not None:
            self._consumer_pred.observe_request(bid, requester)
        if self._dir_mask[bid]:
            self._resolve_mask(requester, bid, is_write)

        state = self._dir_state[bid]
        if state == D_EXCLUSIVE:
            owner = self._dir_owner[bid]
            if owner < 0 or owner == requester:
                raise ProtocolError(
                    f"request by {requester} on EXCLUSIVE block "
                    f"{self._block_of[bid]:#x} owned by {owner}"
                )
            downgrade = not is_write and self._downgrade
            self._trans[bid] = [
                requester,
                is_write,
                1,
                owner if downgrade else -1,
            ]
            self._dq_busy[home].add(bid)
            self._send_to_node(
                home,
                owner,
                K_FETCH_DOWNGRADE if downgrade else K_FETCH_INVAL,
                bid,
                t,
            )
        elif state == D_SHARED and is_write:
            targets = sorted(self._dir_sharers[bid] - {requester})
            if targets:
                self._trans[bid] = [requester, True, len(targets), -1]
                self._dq_busy[home].add(bid)
                for victim in targets:
                    self._send_to_node(
                        home, victim, K_INVALIDATE, bid, t
                    )
            else:
                self._grant(bid, requester, True, t)
        else:
            self._grant(bid, requester, is_write, t)

    def _resolve_mask(
        self, requester: int, bid: int, is_write: bool
    ) -> None:
        mask = self._dir_mask[bid]
        if not mask:
            return
        if requester in mask:
            del mask[requester]
            self._si_premature += 1
            self._policies[requester].on_premature(bid)
        confirmed = [
            node
            for node, held in mask.items()
            if held == C_EXCLUSIVE or is_write
        ]
        for node in confirmed:
            del mask[node]
            self._si_timely += 1
            self._policies[node].on_verified_correct(bid)

    def _grant(
        self, bid: int, requester: int, is_write: bool, t: int
    ) -> None:
        version_seen = self._dir_version[bid]
        if is_write:
            self._dir_state[bid] = D_EXCLUSIVE
            self._dir_owner[bid] = requester
            self._dir_sharers[bid].clear()
            self._dir_version[bid] = version_seen + 1
        else:
            self._dir_state[bid] = D_SHARED
            self._dir_owner[bid] = -1
            self._dir_sharers[bid].add(requester)
        home = self._home_of[bid]
        free = self._ni_free[home]
        inject = (t if t > free else free) + self._ni_overhead
        self._ni_free[home] = inject
        arrival = inject + self._net_latency
        buckets = self._buckets
        bucket = buckets.get(arrival)
        if bucket is None:
            buckets[arrival] = [(K_REPLY, requester, bid, version_seen)]
            heappush(self._timeheap, arrival)
        else:
            bucket.append((K_REPLY, requester, bid, version_seen))

    def _service_writeback(self, msg: list, t: int) -> None:
        bid = msg[2]
        trans = self._trans.pop(bid, None)
        if trans is None:
            raise ProtocolError(
                f"writeback for block {self._block_of[bid]:#x} without "
                f"a transaction"
            )
        self._dir_owner[bid] = -1
        self._dir_state[bid] = D_IDLE
        if trans[3] >= 0 and msg[3]:
            # DOWNGRADE variant: the owner retained a read-only copy.
            self._dir_state[bid] = D_SHARED
            self._dir_sharers[bid].add(trans[3])
        self._grant(bid, trans[0], trans[1], t)
        self._end_transaction(self._home_of[bid], bid, t)

    def _service_ack(self, msg: list, t: int) -> None:
        bid = msg[2]
        trans = self._trans.get(bid)
        if trans is None:
            raise ProtocolError(
                f"stray invalidation ack for block "
                f"{self._block_of[bid]:#x}"
            )
        trans[2] -= 1
        if trans[2] > 0:
            return
        del self._trans[bid]
        self._grant(bid, trans[0], trans[1], t)
        self._end_transaction(self._home_of[bid], bid, t)

    def _service_self_inval(self, msg: list, t: int) -> None:
        node = msg[1]
        bid = msg[2]
        state = self._dir_state[bid]
        if state == D_EXCLUSIVE and self._dir_owner[bid] == node:
            self._dir_owner[bid] = -1
            self._dir_state[bid] = D_IDLE
            self._dir_mask[bid][node] = C_EXCLUSIVE
            self._si_inflight[node].discard(bid)
            self._maybe_forward(node, bid, t)
        elif state == D_SHARED and node in self._dir_sharers[bid]:
            sharers = self._dir_sharers[bid]
            sharers.discard(node)
            if not sharers:
                self._dir_state[bid] = D_IDLE
            self._dir_mask[bid][node] = C_SHARED
            self._si_inflight[node].discard(bid)
            self._maybe_forward(node, bid, t)
        else:
            # Overtaken: correct but late.
            self._si_inflight[node].discard(bid)
            self._si_late += 1
            self._policies[node].on_verified_correct(bid)

    # ------------------------------------------------------------------
    # node-bound message handling
    # ------------------------------------------------------------------

    def _receive_reply(
        self, node: int, bid: int, version: Optional[int], t: int
    ) -> None:
        outstanding = self._outstanding[node]
        if outstanding is None:
            raise SimulationError(
                f"node {node} got a reply with no outstanding miss"
            )
        pc, _bid, is_write = outstanding
        self._outstanding[node] = None
        prev = self._cache[node][bid]
        trace_start = prev == C_NONE
        if prev == C_SHARED and is_write:
            miss_kind = MissKind.UPGRADE
        elif is_write:
            miss_kind = MissKind.WRITE_FETCH
        else:
            miss_kind = MissKind.READ_FETCH
        self._cache[node][bid] = (
            C_EXCLUSIVE if is_write else C_SHARED
        )
        t_done = t + self._reply_overhead
        if self._policies[node].on_access(
            bid, pc, trace_start, miss_kind, version
        ):
            self._fire_si(node, bid, t_done)
        injected = self._injected[node]
        if injected:
            ia = injected.popleft()
            if ia[3]:
                self._after_injected(node, ia, t_done)
        self._run_node(node, t_done)

    def _receive_invalidate(self, node: int, bid: int, t: int) -> None:
        cached = self._cache[node][bid]
        if cached:
            self._cache[node][bid] = C_NONE
            self._epochs[node][bid] += 1
            forwarded = self._forwarded[node]
            if bid in forwarded:
                forwarded.discard(bid)
                self._fwd_wasted += 1
            else:
                self._policies[node].on_invalidation(bid)
            self._n_ext_inval += 1
        elif bid not in self._si_inflight[node] and not (
            self._is_fetching(node, bid)
        ):
            raise ProtocolError(
                f"invalidate at node {node} for uncached block "
                f"{self._block_of[bid]:#x}"
            )
        self._send_to_dir(
            node,
            [M_ACK_INV, node, bid, False, 0],
            t + self._cfg.node_inval_process,
        )

    def _receive_fetch_inval(self, node: int, bid: int, t: int) -> None:
        cached = self._cache[node][bid]
        if cached:
            self._cache[node][bid] = C_NONE
            self._epochs[node][bid] += 1
            self._policies[node].on_invalidation(bid)
            self._n_ext_inval += 1
        elif bid not in self._si_inflight[node]:
            raise ProtocolError(
                f"fetch-inval at node {node} for uncached block "
                f"{self._block_of[bid]:#x}"
            )
        self._send_to_dir(
            node,
            [M_WRITEBACK, node, bid, False, 0],
            t + self._cfg.node_inval_process,
        )

    def _receive_fetch_downgrade(
        self, node: int, bid: int, t: int
    ) -> None:
        retained = self._cache[node][bid] != C_NONE
        if retained:
            self._cache[node][bid] = C_SHARED
        elif bid not in self._si_inflight[node]:
            raise ProtocolError(
                f"downgrade at node {node} for uncached block "
                f"{self._block_of[bid]:#x}"
            )
        self._send_to_dir(
            node,
            [M_WRITEBACK, node, bid, retained, 0],
            t + self._cfg.node_inval_process,
        )

    def _maybe_forward(self, holder: int, bid: int, t: int) -> None:
        pred = self._consumer_pred
        if pred is None:
            return
        consumer = pred.predict_consumer(bid, holder)
        if (
            consumer is None
            or consumer in self._dir_mask[bid]
            or self._cache[consumer][bid] != C_NONE
            or self._is_fetching(consumer, bid)
        ):
            return
        self._resolve_mask(consumer, bid, is_write=False)
        self._dir_state[bid] = D_SHARED
        self._dir_owner[bid] = -1
        self._dir_sharers[bid].add(consumer)
        pred.observe_request(bid, consumer)
        self._fwd_forwards += 1
        self._send_to_node(
            self._home_of[bid], consumer, K_FORWARD, bid, t
        )

    def _receive_forward(self, node: int, bid: int, t: int) -> None:
        if self._cache[node][bid] != C_NONE:
            return
        self._cache[node][bid] = C_SHARED
        self._forwarded[node].add(bid)

    def _is_fetching(self, node: int, bid: int) -> bool:
        outstanding = self._outstanding[node]
        return outstanding is not None and outstanding[1] == bid
