"""Remote execution: a TCP broker serving ``JobSpec`` leases to workers.

The one distributed execution path: specs travel over the network, so
a fleet needs no shared filesystem. The ``JobSpec -> pickled report``
contract is transport-agnostic, so the broker and worker are thin
framing around the same execution stack every other backend uses::

    Runner ── misses ──▶ RemoteBackend
                             │ owns
                             ▼
                          Broker ◀── TCP frames ──▶ repro worker (× N)
                          ├ LeaseTable  (lease / heartbeat / expire / reassign)
                          └ ResultCache publication (exactly-once)

Wire protocol (``ltp-remote/3``; every peer ships from this package,
so a frame stamped with any other version is rejected): one frame per
message — the 4-byte magic ``LTPW``, a version byte, a big-endian u32
payload length, then the pickled message dict — request/reply over a
persistent connection. Messages: ``hello``/``welcome``,
``lease``/``specs``, ``result``, ``error``, ``heartbeat``, ``bye``,
the v2 grid frames ``submit``/``grid-poll``/``grid-results``/
``grid-done``, and the v3 wire-auth frames ``auth``/``challenge``
(HMAC handshake). Workers execute leased specs with
:func:`repro.runner.runner.execute_spec` and stream pickled reports
back for the broker to publish. A worker takes each trace from its
per-process memo, from the trace cache it was started with (forked
workers share the runner's ``<cache-dir>/traces``), or from a local
build; traces never cross the wire. A report travels as its plain
pickle, the same bytes the result cache stores.

Lease lifecycle::

    PENDING ──lease()──▶ LEASED ──result──▶ DONE
                 ▲          │
                 │          │ owner stops heartbeating for ttl secs
                 └─expire()─┘  (reassigned by the next lease())

Failure modes:

* **Worker dies mid-job** — its heartbeats stop, the lease expires,
  and the next ``lease()`` call reassigns the spec to a live worker.
  If the original worker was merely slow and still reports, the first
  result wins; duplicates are acknowledged and dropped (results are
  deterministic, so either copy is byte-identical).
* **Broker dies** — workers' requests fail and they exit; a restarted
  ``run-all`` resumes from the :class:`ResultCache`, re-serving only
  the unfinished specs.
* **Spec raises on a worker** — the error is reported, the spec is
  retried (possibly elsewhere) up to ``max_attempts`` times, then
  surfaced as :class:`RemoteExecutionError` with the remote traceback.

**Grids**: every broker starts with an empty lease table and admits
work one grid at a time — ``submit`` over the wire, or
:meth:`Broker.submit` in-process. A grid is a *namespace* over the
fleet-wide deduplicated key space; its results fan out to it as they
publish, and its client reads them back (``grid-poll`` →
``grid-results`` batches, then one ``grid-done`` carrying any
permanent failures; :meth:`Broker.stream` in-process). An idle
worker's lease poll is held at the broker until work arrives or
``poll`` seconds pass, and idle workers are told to keep polling
rather than exit, until :meth:`Broker.begin_shutdown`.
``RemoteBackend`` runs its own broker for one ``run-all`` grid;
:class:`repro.fleet.FleetService` (``repro serve``) keeps one up across
grids. :class:`GridClient` is the wire client;
``RemoteBackend(attach=...)`` adapts it to the backend contract so a
whole ``run-all`` can ride an already-running service.
"""

from __future__ import annotations

import hashlib
import hmac
import multiprocessing
import os
import pickle
import secrets
import socket
import socketserver
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import repro.runner.runner as _execution
import repro.telemetry as _tm
from repro.runner.backends import ExecutionBackend, _trace_root
from repro.runner.cache import ResultCache
from repro.runner.spec import JobSpec
from repro.workloads import TraceCache

#: frame header: magic, protocol version, payload length
MAGIC = b"LTPW"
#: the only version either side emits or accepts; v2 added the
#: grid frames (submit / grid-poll / grid-results / grid-done); v3
#: added the wire-auth handshake (auth / challenge)
PROTOCOL_VERSION = 3
_HEADER = struct.Struct("!4sBI")

#: refuse frames beyond this size — a garbage header read as a huge
#: length should fail fast, not allocate
MAX_FRAME = 512 * 1024 * 1024

#: largest pickled report a worker will put on the wire; anything
#: bigger is reported as a spec failure instead of sent, because an
#: oversized frame would be *rejected* broker-side, tearing down the
#: connection with no attempt counted (the spec would then cycle
#: lease -> expire -> reassign forever)
_REPORT_BUDGET = MAX_FRAME - 65536

#: seconds without a heartbeat before a worker's lease is reassigned
DEFAULT_LEASE_TTL = 30.0

#: seconds a worker or client socket waits on any one send or reply.
#: Every exchange is a bounded request/reply, so a broker that stops
#: answering (hung process, half-open TCP) surfaces as a socket timeout
#: (an OSError) instead of a hang. Generous, because a submit reply
#: decodes every broker-side cache hit before it answers.
REQUEST_TIMEOUT = 300.0

#: environment fallback for the shared wire-auth secret (the CLI's
#: --auth-token flags default to it, so a token never has to appear
#: on a command line)
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"


#: slack added to a raw-report-bytes size estimate for one ready grid
#: entry (covers the pickled spec and per-item frame overhead)
_ENTRY_SLACK = 4096

#: hard per-item ceiling for grid-results entries: a single report
#: this big cannot ship in any frame — it is delivered as that spec's
#: failure instead of tearing down the client connection. Reachable
#: although workers enforce ``_REPORT_BUDGET``: a cache hit read from
#: disk passed no worker budget, and a report inside that budget can
#: pass this limit once ``_ENTRY_SLACK`` is added
_GRID_ITEM_LIMIT = MAX_FRAME - 65536


def _entry_size(spec: "JobSpec", value: Any) -> int:
    """Wire-size estimate of one ``(spec, report)`` grid-results item."""
    return len(
        pickle.dumps((spec, value), protocol=pickle.HIGHEST_PROTOCOL)
    )


# -- wire-layer instruments (see docs/observability.md) ----------------
# Broker-side series are the one store of the counts BrokerStats reads;
# the lease-to-publish histogram is the fleet's end-to-end latency
# (first grant of a key to its publication).
_M_FRAMES = _tm.counter("repro_broker_frames_total")
_M_LEASES = _tm.counter("repro_broker_leases_total")
_M_RESULTS = _tm.counter("repro_broker_results_total")
_M_RESULT_BYTES = _tm.counter("repro_broker_result_bytes_total")
_M_SUBMITS = _tm.counter("repro_broker_submits_total")
_M_GRIDS_DONE = _tm.counter("repro_broker_grids_done_total")
_M_AUTH_FAILURES = _tm.counter("repro_broker_auth_failures_total")
_M_LEASE_TO_PUBLISH = _tm.histogram(
    "repro_broker_lease_to_publish_seconds"
)
#: stamped broker-side at heartbeat receipt from the worker-measured
#: round-trip of its previous heartbeat frame
# broker-stamped, so it lives in the broker family — the worker
# prefixes below must NOT match it, or an in-process worker (tests)
# would echo the gauge back inside its heartbeat snapshot and the
# scrape would show duplicate series
_M_HB_RTT = _tm.gauge("repro_broker_heartbeat_rtt_seconds")

# Worker-side series; shipped back to the broker inside heartbeat
# frames (snapshot prefix below) for fleet-wide /metrics aggregation.
_WORKER_METRIC_PREFIXES = ("repro_worker_", "repro_runner_")
_W_EXECUTED = _tm.counter("repro_worker_executed_total")

#: a worker whose last heartbeat is older than this many lease ttls is
#: reported stale (not live) in /healthz
_HEALTH_STALE_TTLS = 2.0


class ProtocolError(RuntimeError):
    """Malformed or truncated wire traffic, or a vanished peer."""


class RemoteExecutionError(RuntimeError):
    """The fleet could not resolve the grid (failures, dead workers,
    or timeout)."""


def _failures_error(failures: Dict[str, str]) -> RemoteExecutionError:
    """One error for a grid's permanent failures (spec label -> remote
    message), naming each spec with the last line of its message."""
    return RemoteExecutionError(
        f"{len(failures)} spec(s) failed permanently on the fleet:\n"
        + "\n".join(
            f"  {label}: "
            + (text.strip().splitlines() or ["<no message>"])[-1]
            for label, text in failures.items()
        )
    )


# -- framing -----------------------------------------------------------


def encode_frame(message: Any) -> bytes:
    """One wire frame: header + pickled ``message``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, len(payload)) + payload


def _read_exact(stream, n: int, at_frame_start: bool = False):
    chunks = b""
    while len(chunks) < n:
        data = stream.read(n - len(chunks))
        if not data:
            if at_frame_start and not chunks:
                return None  # clean EOF between frames
            raise ProtocolError(
                f"stream truncated: wanted {n} bytes, got {len(chunks)}"
            )
        chunks += data
    return chunks


def read_frame(stream) -> Any:
    """Read one frame from a binary stream.

    Returns the decoded message, or ``None`` on a clean EOF at a frame
    boundary (protocol messages are always dicts, never ``None``).
    Raises :class:`ProtocolError` on bad magic, any version other than
    :data:`PROTOCOL_VERSION`, oversized or truncated frames, and
    undecodable payloads.
    """
    header = _read_exact(stream, _HEADER.size, at_frame_start=True)
    if header is None:
        return None
    magic, version, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} (this side speaks "
            f"{PROTOCOL_VERSION})"
        )
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds cap")
    payload = _read_exact(stream, length)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def _request(stream, message: dict) -> dict:
    """Send one message and read its reply on a request/reply stream."""
    stream.write(encode_frame(message))
    stream.flush()
    reply = read_frame(stream)
    if reply is None:
        raise ProtocolError("connection closed by broker")
    return reply


# -- wire auth ---------------------------------------------------------


def auth_mac(token: str, nonce: str) -> str:
    """The handshake response: HMAC-SHA256 of the broker's nonce
    under the shared secret, hex-encoded. The token itself never
    travels on the wire."""
    return hmac.new(
        token.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def authenticate(stream, token: str, name: str = "?") -> None:
    """Run the v3 HMAC challenge/response handshake on ``stream``.

    Two round trips: a bare ``auth`` frame fetches a per-connection
    ``challenge`` nonce, then a second ``auth`` frame carries
    ``mac = HMAC-SHA256(token, nonce)``. A broker that does not
    require auth acknowledges the first frame directly
    (``authenticated: True``) and the handshake ends early, so
    clients configured with a token interoperate with open brokers.
    Raises :class:`ProtocolError` on rejection.
    """
    first = _request(stream, {"type": "auth", "worker": name})
    if first.get("authenticated"):
        return  # open broker: no challenge required
    if first.get("type") != "challenge":
        raise ProtocolError(
            f"broker did not challenge: {first.get('message', first)!r}"
        )
    reply = _request(stream, {
        "type": "auth",
        "worker": name,
        "mac": auth_mac(token, str(first.get("nonce", ""))),
    })
    if not reply.get("authenticated"):
        raise ProtocolError(
            "authentication rejected: "
            f"{reply.get('message', reply)!r}"
        )


# -- lease ledger ------------------------------------------------------


@dataclass
class LeaseInfo:
    owner: str
    expires: float


#: group tag for keys given to the :class:`LeaseTable` constructor
#: (the broker tags every key with its grid id instead): scheduling
#: degenerates to pure insertion order when one group has pending keys
DEFAULT_GROUP = ""


class LeaseTable:
    """In-memory exactly-once lease ledger with an injectable clock.

    Keys move ``PENDING -> LEASED -> DONE`` (or ``FAILED`` after
    ``max_attempts`` reported errors). A lease not heartbeaten within
    ``ttl`` seconds is reclaimed by :meth:`expire` — which every
    :meth:`lease` call runs first, so a polling worker is all it takes
    to reassign a dead peer's specs.

    **Fair-share scheduling**: every key belongs to a *group* (a
    submitted grid's id; :attr:`DEFAULT_GROUP` when untagged).
    :meth:`lease` grants round-robin across groups that have pending
    keys — one grant per group per turn, insertion order within a
    group, rotation resuming after the last-granted group — so one
    huge grid cannot starve a small one: over any window of as many
    consecutive grants as there are groups with pending keys, every
    such group receives one. With a single group this is exactly
    insertion order, which is what keeps backend-conformance
    byte-identity intact. All tie-breaks are by admission order, so
    the schedule is deterministic.
    """

    def __init__(
        self,
        keys: Iterable[str],
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.time,
        max_attempts: int = 3,
    ) -> None:
        self.ttl = ttl
        self.clock = clock
        self.max_attempts = max_attempts
        self._state: Dict[str, str] = {key: PENDING for key in keys}
        self._leases: Dict[str, LeaseInfo] = {}
        self._attempts: Dict[str, int] = {}
        #: expired leases reclaimed for reassignment, cumulative
        self.reclaimed = 0
        #: admission-ordered set of groups (the dict's keys)
        self._groups: Dict[str, None] = {DEFAULT_GROUP: None}
        #: key -> group; a key keeps the group it was first admitted
        #: under (later grids sharing the key ride its result anyway)
        self._group_of: Dict[str, str] = {
            key: DEFAULT_GROUP for key in self._state
        }
        #: group granted from most recently — the rotation resumes
        #: after it, so fairness holds across lease() calls
        self._rr_last: Optional[str] = None

    def states(self) -> Dict[str, str]:
        return dict(self._state)

    def extend(
        self, keys: Iterable[str], group: str = DEFAULT_GROUP
    ) -> int:
        """Admit new pending keys mid-flight (how the broker enqueues
        a submitted grid into the live table), tagged with the
        submitting grid's ``group``. Keys already tracked — whatever
        their state — are left untouched and keep their original
        group; returns how many were new."""
        self._groups.setdefault(group)
        added = 0
        for key in keys:
            if key not in self._state:
                self._state[key] = PENDING
                self._group_of[key] = group
                added += 1
        return added

    def _reset_to_pending(self, key: str, from_state: str) -> bool:
        """Move a terminal key back to PENDING with a fresh attempt
        budget; shared body of :meth:`rearm` and :meth:`requeue`."""
        if self._state.get(key) != from_state:
            return False
        self._state[key] = PENDING
        self._attempts.pop(key, None)
        return True

    def rearm(self, key: str) -> bool:
        """Reset a permanently FAILED key to PENDING with a fresh
        attempt budget (a resubmitted grid on a long-lived broker is
        an operator's retry — a FAILED key must not poison every
        future grid that contains it). True iff the key was FAILED."""
        return self._reset_to_pending(key, FAILED)

    def requeue(self, key: str) -> bool:
        """Reset a DONE key to PENDING (its published value was
        evicted from broker memory *and* is gone from the cache —
        e.g. an operator pruned the live serve cache — so a
        resubmitted grid can only be served by running the spec
        again; reports are deterministic, so the re-execution is
        byte-identical). The attempt budget resets like
        :meth:`rearm`'s — the historical error count of a spec that
        eventually *succeeded* must not be inherited by its re-run.
        True iff the key was DONE."""
        return self._reset_to_pending(key, DONE)

    def owner_of(self, key: str) -> Optional[str]:
        info = self._leases.get(key)
        return info.owner if info else None

    def expire(self) -> List[str]:
        """Reclaim every lease *strictly* past its expiry; returns the
        keys. A lease at exactly ``ttl`` seconds is still live."""
        now = self.clock()
        reclaimed = []
        for key, info in list(self._leases.items()):
            if info.expires < now:
                del self._leases[key]
                if self._state[key] == LEASED:
                    self._state[key] = PENDING
                    reclaimed.append(key)
        self.reclaimed += len(reclaimed)
        return reclaimed

    def lease(self, owner: str, max_n: int = 1) -> List[str]:
        """Grant ``owner`` up to ``max_n`` pending keys (expired leases
        are reclaimed first, so dead peers' work is reassigned here).

        Grants rotate fairly across groups — see the class docstring;
        a single-group table grants in pure insertion order.
        """
        self.expire()
        now = self.clock()
        granted: List[str] = []
        pending: Dict[str, List[str]] = {}
        for key, state in self._state.items():
            if state == PENDING:
                group = self._group_of.get(key, DEFAULT_GROUP)
                pending.setdefault(group, []).append(key)
        if not pending:
            return granted
        # rotation order: admission order, resumed after the group
        # that received the most recent grant
        ranked = list(self._groups)
        if self._rr_last in self._groups:
            pivot = ranked.index(self._rr_last)
            ranked = ranked[pivot + 1:] + ranked[: pivot + 1]
        order = [g for g in ranked if g in pending]
        buckets = {g: deque(pending[g]) for g in order}
        while order and len(granted) < max_n:
            for group in list(order):
                bucket = buckets[group]
                key = bucket.popleft()
                self._state[key] = LEASED
                self._leases[key] = LeaseInfo(
                    owner=owner, expires=now + self.ttl
                )
                granted.append(key)
                self._rr_last = group
                if not bucket:
                    order.remove(group)
                if len(granted) >= max_n:
                    break
        return granted

    def heartbeat(self, owner: str, keys: Iterable[str]) -> int:
        """Extend ``owner``'s leases among ``keys``; returns how many.
        Leases reassigned to another worker are left untouched."""
        now = self.clock()
        refreshed = 0
        for key in keys:
            info = self._leases.get(key)
            if info is not None and info.owner == owner:
                info.expires = now + self.ttl
                refreshed += 1
        return refreshed

    def complete(self, key: str) -> bool:
        """Mark ``key`` done. False when it already was (a duplicate
        report from a slow-but-alive worker after reassignment)."""
        if self._state[key] == DONE:
            return False
        self._state[key] = DONE
        self._leases.pop(key, None)
        return True

    def fail(self, key: str, owner: str) -> bool:
        """Record a failed attempt; True once permanently failed.

        Like :meth:`heartbeat` and :meth:`release`, owner-checked —
        and the check demands a *live* owner-matched lease: an error
        reported by a worker whose lease was reassigned, expired, or
        already reclaimed is ignored entirely. A dead-then-resurrected
        worker's stale error must neither burn the spec's attempt
        budget nor permanently FAIL a spec another worker is about to
        run; an expired-but-unreclaimed lease is left for
        :meth:`expire` to return to PENDING. The liveness boundary is
        :meth:`expire`'s: a lease at exactly ``ttl`` seconds old
        still counts.
        """
        if self._state[key] == DONE:
            return False
        info = self._leases.get(key)
        if (
            info is None
            or info.owner != owner
            or info.expires < self.clock()
        ):
            return False
        del self._leases[key]
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        if attempts >= self.max_attempts:
            self._state[key] = FAILED
            return True
        self._state[key] = PENDING
        return False

    def release(self, owner: str) -> List[str]:
        """Return all of ``owner``'s leases to PENDING (graceful exit
        of a worker that leased more than it finished)."""
        returned = []
        for key, info in list(self._leases.items()):
            if info.owner == owner:
                del self._leases[key]
                if self._state[key] == LEASED:
                    self._state[key] = PENDING
                    returned.append(key)
        return returned

    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for state in self._state.values():
            out[state] += 1
        return out


# -- broker ------------------------------------------------------------


@dataclass(frozen=True)
class BrokerStats:
    """Fleet-side accounting of one broker when read, over every grid
    it admitted: its broker counters since it was made, and its own
    key and worker sets."""

    specs: int
    #: first-time completions (== specs on a clean run)
    results: int
    #: redundant reports acknowledged and dropped
    duplicates: int
    #: failed attempts: reported by workers, or refused at publication
    errors: int
    #: specs handed out, including reassignments after expiry
    leases: int
    #: pickled report bytes received on result frames
    result_bytes: int
    #: grids admitted (``submit`` frames and :meth:`Broker.submit`)
    grids: int
    #: grids fully streamed back to their client
    grids_done: int
    #: connections that failed (or never attempted) the auth handshake
    auth_failures: int
    workers: frozenset


@dataclass
class GridState:
    """One admitted grid's delivery state inside the broker.

    The broker's lease table and result publication are grid-blind —
    keys dedup fleet-wide — so a grid is purely a *subscription*: the
    ordered key set the client asked for, the results ready to stream
    on the next ``grid-poll`` (or :meth:`Broker.stream` wake-up), the
    keys still outstanding, and the permanent failures. All fields are
    mutated under the broker lock.

    ``ready`` entries are ``(spec, report, wire-size estimate)`` —
    the size is computed once at append time (cheaply, from bytes the
    appender already holds) so batch budgeting in ``grid-poll`` never
    pickles under the broker lock.
    """

    id: str
    ready: "deque" = field(default_factory=deque)
    outstanding: Set[str] = field(default_factory=set)
    #: spec label -> last error message, for permanently failed keys
    failures: Dict[str, str] = field(default_factory=dict)
    #: monotonic stamp of the client's last submit/poll — how the
    #: broker reaps grids whose client vanished mid-stream
    last_poll: float = 0.0
    done_sent: bool = False


class Broker:
    """Serves grids of specs to workers and collects their reports.

    Lifecycle: :meth:`bind` (allocate the listening socket — the
    address is then readable), :meth:`serve` (handle connections on
    daemon threads), :meth:`begin_shutdown` (release idle workers),
    :meth:`stop`. :meth:`start` is bind + serve.

    Every broker starts empty and admits whole grids, at any time,
    through ``submit`` frames or :meth:`submit` — each grid gets a
    namespace id; keys dedup fleet-wide across grids, so a resubmitted
    spec is served from the live results or the cache instead of
    re-executed. A grid is read back through
    ``grid-poll``/``grid-results``/``grid-done`` by a wire client or
    through :meth:`stream` in-process. Idle workers are never told the
    work is done — they wait for the next grid until
    :meth:`begin_shutdown` flips the ``closing`` flag. ``run-all``'s
    broker admits its own grid and shuts down once it has streamed it;
    ``repro serve``'s stays up across grids.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        poll: float = 0.1,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
        results_budget: int = 256 * 1024 * 1024,
        grid_idle_timeout: float = 3600.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.cache = cache
        self.lease_ttl = lease_ttl
        self.poll = poll
        #: shared wire-auth secret; None = open broker (no handshake
        #: required, auth frames acknowledged as already-authenticated)
        self.auth_token = auth_token
        #: cap on raw-report bytes held in self.results — older
        #: entries are evicted once they are safely in the cache, so a
        #: long-lived service cannot grow without bound
        self.results_budget = results_budget
        #: drop an admitted grid's delivery state once its client has
        #: neither polled nor resubmitted for this long
        self.grid_idle_timeout = grid_idle_timeout
        #: set by begin_shutdown(): idle workers see done=True on
        #: their next lease poll and exit cleanly
        self.closing = False
        self._by_key: Dict[str, JobSpec] = {}
        #: submitted-grid namespaces and per-key grid subscriptions
        self._grids: Dict[str, GridState] = {}
        self._subscribers: Dict[str, List[GridState]] = {}
        self._grid_seq = 0
        #: raw-report bytes per results key, for budget eviction
        self._result_sizes: Dict[str, int] = {}
        self._result_bytes_held = 0
        #: lease key -> trace id, minted at first grant and shipped in
        #: the lease reply so the worker's execute span and this
        #: broker's publish span stitch into one cross-process trace
        self._trace_ids: Dict[str, str] = {}
        #: lease key -> wall-clock stamp of its first grant, consumed
        #: at publication by the lease-to-publish histogram
        #: (both maps drop a key once its lease ends for good:
        #: published, or failed permanently)
        self._lease_started: Dict[str, float] = {}
        #: worker name -> health piggybacked on heartbeat frames:
        #: {"last_seen", "rtt", "keys", "metrics"} — feeds /healthz
        #: and fleet-merged /metrics (all mutated under self._lock)
        self._worker_health: Dict[str, dict] = {}
        self.table = LeaseTable(
            (),
            ttl=lease_ttl,
            clock=clock,
            max_attempts=max_attempts,
        )
        self._since = _tm.Baseline(
            _M_RESULTS, _M_LEASES, _M_RESULT_BYTES, _M_SUBMITS,
            _M_GRIDS_DONE, _M_AUTH_FAILURES,
        )
        #: workers that said hello (stream() waits on the first)
        self._workers: Set[str] = set()
        self.results: Dict[str, Any] = {}
        self._lock = threading.Lock()
        #: notified (under self._lock) whenever a result or permanent
        #: failure fans out to grids, waking in-process stream() readers
        self._fanout = threading.Condition(self._lock)
        #: notified (under self._lock) whenever keys become leasable or
        #: the broker begins closing or stops, waking the idle lease
        #: polls held in _handle_lease
        self._work = threading.Condition(self._lock)
        #: set by stop(): idle lease polls are answered at once
        self._stopping = False
        self._listen = listen
        self._server = None
        self._thread: Optional[threading.Thread] = None
        #: accepted connection -> its handler thread, so stop() can
        #: cut every live peer off instead of only the listener
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        #: monotonic stamp of the last message from any worker — how
        #: stream() distinguishes a silent-but-alive external fleet
        #: from a genuinely dead one
        self._last_activity = time.monotonic()
        self.address: Optional[Tuple[str, int]] = None

    def _key(self, spec: JobSpec) -> str:
        if self.cache is not None:
            return self.cache.key(spec)
        payload = f"repro-remote/{spec.canonical()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> Tuple[str, int]:
        broker = self

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

            def process_request(self, request, client_address):
                # registered here, on the serving thread, so a
                # connection accepted just before stop() is never
                # missed by its sweep
                thread = threading.Thread(
                    target=self.process_request_thread,
                    args=(request, client_address),
                    name="remote-broker-conn",
                    daemon=True,
                )
                with broker._connections_lock:
                    broker._connections[request] = thread
                thread.start()

            def shutdown_request(self, request):
                with broker._connections_lock:
                    broker._connections.pop(request, None)
                super().shutdown_request(request)

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self):
                # per-connection auth state: with a token configured,
                # every frame before a completed HMAC handshake is
                # answered by _handle_auth and never dispatched
                authed = broker.auth_token is None
                nonce = None
                while True:
                    try:
                        message = read_frame(self.rfile)
                    except (OSError, ProtocolError):
                        break
                    if message is None:
                        break
                    close = False
                    if not authed:
                        reply, authed, nonce, close = (
                            broker._handle_auth(message, nonce)
                        )
                    else:
                        try:
                            reply = broker._dispatch(message)
                        except Exception as exc:  # never kill the thread
                            reply = {
                                "type": "error",
                                "message": f"{type(exc).__name__}: {exc}",
                            }
                    try:
                        self.wfile.write(encode_frame(reply))
                        self.wfile.flush()
                    except OSError:
                        break
                    if close:
                        break

        self._server = _Server(self._listen, _Handler)
        self.address = self._server.server_address[:2]
        return self.address

    def serve(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="remote-broker",
            daemon=True,
        )
        self._thread.start()

    def start(self) -> Tuple[str, int]:
        address = self.bind()
        self.serve()
        return address

    def begin_shutdown(self) -> None:
        """Tell idle workers the broker is closing.

        Workers polling an empty table are normally told
        ``done: False`` so they wait for the next submitted grid; once
        ``closing`` is set they get ``done: True`` and exit cleanly,
        and the polls the broker is holding are answered at once.
        Call this before :meth:`stop` so idle workers leave cleanly
        instead of being cut off mid-poll.
        """
        with self._lock:
            self.closing = True
            self._work.notify_all()

    def stop(self) -> None:
        """Stop accepting, then cut every connected peer off.

        Closing the listener alone would leave each connection's
        handler thread answering its worker forever. Every accepted
        socket is shut down as well, so the handlers read EOF and end
        (they are joined here — no frame is dispatched after ``stop``
        returns) and the workers on the other side see the broker
        vanish and exit. A caller that wants idle workers to leave
        cleanly calls :meth:`begin_shutdown` first. Safe after
        :meth:`bind` alone: the listener is then closed without waiting
        on a serving loop that never started.
        """
        if self._thread is not None:
            # shutdown() blocks until serve_forever() acknowledges, so
            # it is only called once serve() has started that loop
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        if self._server is not None:
            self._server.server_close()
            self._server = None
        with self._lock:
            # release the held lease polls so their handlers can end
            self._stopping = True
            self._work.notify_all()
        with self._connections_lock:
            connections = dict(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already hung up
        for thread in connections.values():
            thread.join(timeout=5)

    # -- message handling ----------------------------------------------

    def _handle_auth(
        self, message: Any, nonce: Optional[str]
    ) -> Tuple[dict, bool, Optional[str], bool]:
        """One frame on a not-yet-authenticated connection.

        Returns ``(reply, authenticated, nonce, close)``. The only
        acceptable traffic is the two-step handshake: a bare ``auth``
        frame draws a fresh ``challenge`` nonce; an ``auth`` frame
        with a ``mac`` is verified as HMAC-SHA256(token, nonce) in
        constant time. Anything else — including every ordinary
        message type — is rejected *before any dispatch* and the
        connection is closed.
        """
        if (
            isinstance(message, dict)
            and message.get("type") == "auth"
        ):
            mac = message.get("mac")
            if mac is None:
                nonce = secrets.token_hex(16)
                return (
                    {
                        "type": "challenge",
                        "nonce": nonce,
                        "protocol": PROTOCOL_VERSION,
                    },
                    False, nonce, False,
                )
            if (
                nonce is not None
                and isinstance(mac, str)
                and hmac.compare_digest(
                    auth_mac(self.auth_token, nonce), mac
                )
            ):
                return (
                    {"type": "ok", "authenticated": True},
                    True, None, False,
                )
            _M_AUTH_FAILURES.inc()
            return (
                {
                    "type": "error",
                    "message": "authentication failed: bad token",
                },
                False, None, True,
            )
        _M_AUTH_FAILURES.inc()
        return (
            {
                "type": "error",
                "message": "authentication required: start with an "
                           "auth handshake (--auth-token)",
            },
            False, None, True,
        )

    # -- observability ---------------------------------------------------

    @property
    def stats(self) -> BrokerStats:
        """This broker's accounting so far (a frozen copy)."""
        count = self._since.count
        with self._lock:
            specs, workers = len(self._by_key), frozenset(self._workers)
        return BrokerStats(
            specs=specs,
            results=count(_M_RESULTS, outcome="first"),
            duplicates=count(_M_RESULTS, outcome="duplicate"),
            errors=count(_M_RESULTS, outcome="error"),
            leases=count(_M_LEASES),
            result_bytes=count(_M_RESULT_BYTES),
            grids=count(_M_SUBMITS, outcome="admitted"),
            grids_done=count(_M_GRIDS_DONE),
            auth_failures=count(_M_AUTH_FAILURES),
            workers=workers,
        )

    def worker_snapshots(self) -> Dict[str, dict]:
        """Per-worker registry snapshots piggybacked on heartbeats —
        the fleet half of one ``/metrics`` scrape."""
        with self._lock:
            return {
                worker: health["metrics"]
                for worker, health in self._worker_health.items()
                if isinstance(health.get("metrics"), dict)
            }

    def render_metrics(self) -> str:
        """This process's registry plus every worker's shipped
        snapshot, as Prometheus exposition text."""
        return _tm.render_prometheus(
            _tm.registry().snapshot(), self.worker_snapshots()
        )

    def health(self) -> dict:
        """The ``/healthz`` document: queue depth, workers, grids.

        Worker ``age`` is seconds since the last heartbeat; a worker
        silent for more than ``_HEALTH_STALE_TTLS`` lease ttls is
        excluded from ``live_workers`` but still listed. The fleet
        layer (``repro serve``) merges its supervisor/crash-breaker
        state on top of this.
        """
        now = time.time()
        stale_after = _HEALTH_STALE_TTLS * self.lease_ttl
        stats = self.stats
        with self._lock:
            states = self.table.states()
            depth = sum(
                1 for state in states.values() if state == PENDING
            )
            leased = sum(
                1 for state in states.values() if state == LEASED
            )
            workers = {}
            live = 0
            for name, health in self._worker_health.items():
                age = max(0.0, now - health["last_seen"])
                fresh = age <= stale_after
                live += fresh
                workers[name] = {
                    "age_s": round(age, 3),
                    "rtt_s": health.get("rtt"),
                    "keys": health.get("keys", 0),
                    "live": fresh,
                }
            grids_pending = {
                gid: len(grid.outstanding)
                for gid, grid in self._grids.items()
            }
        return {
            "queue_depth": depth,
            "leased": leased,
            "live_workers": live,
            "workers": workers,
            "grids_pending": grids_pending,
            "closing": self.closing,
            "stats": {name: getattr(stats, name) for name in (
                "specs", "results", "duplicates", "errors", "leases",
                "grids", "grids_done", "auth_failures",
            )},
        }

    def _dispatch(self, message: Any) -> dict:
        if not isinstance(message, dict):
            return {"type": "error", "message": "message must be a dict"}
        self._last_activity = time.monotonic()
        mtype = message.get("type")
        worker = str(message.get("worker", "?"))
        _M_FRAMES.inc(type=str(mtype))
        if mtype == "auth":
            # open broker (or an already-authenticated connection):
            # acknowledge so token-configured clients interoperate
            return {"type": "ok", "authenticated": True}
        if mtype == "hello":
            with self._lock:
                self._workers.add(worker)
            return {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "lease_ttl": self.lease_ttl,
            }
        if mtype == "lease":
            return self._handle_lease(
                worker, int(message.get("max", 1))
            )
        if mtype == "submit":
            return self._handle_submit(message.get("specs"))
        if mtype == "grid-poll":
            return self._handle_grid_poll(
                str(message.get("grid", "")), int(message.get("max", 32))
            )
        if mtype == "result":
            return self._handle_result(
                worker, message.get("key"), message.get("report")
            )
        if mtype == "error":
            return self._handle_error(
                worker, message.get("key"),
                str(message.get("message", "")),
            )
        if mtype == "heartbeat":
            keys = [str(k) for k in message.get("keys", ())]
            # optional piggyback: the worker's own registry snapshot
            # and the round-trip it measured on its previous
            # heartbeat, stamped here for /healthz and fleet /metrics
            rtt = message.get("rtt")
            snapshot = message.get("metrics")
            health = {
                "last_seen": time.time(),
                "rtt": float(rtt) if isinstance(rtt, (int, float)) else None,
                "keys": len(keys),
            }
            if isinstance(snapshot, dict):
                health["metrics"] = snapshot
            with self._lock:
                refreshed = self.table.heartbeat(worker, keys)
                previous = self._worker_health.get(worker)
                if previous is not None and "metrics" not in health:
                    health["metrics"] = previous.get("metrics")
                self._worker_health[worker] = health
            if health["rtt"] is not None:
                _M_HB_RTT.set(health["rtt"], worker=worker)
            return {"type": "ok", "refreshed": refreshed}
        if mtype == "bye":
            with self._lock:
                returned = self.table.release(worker)
                self._worker_health.pop(worker, None)
                if returned:
                    self._work.notify_all()
            _M_HB_RTT.remove(worker=worker)
            return {"type": "ok", "returned": len(returned)}
        return {
            "type": "error", "message": f"unknown message type {mtype!r}"
        }

    def _handle_lease(self, worker: str, max_n: int) -> dict:
        with self._lock:
            # lease() reclaims expired leases first, so a dead
            # worker's specs are regranted right here
            keys = self.table.lease(worker, max(1, max_n))
            if not keys and not self.closing and not self._stopping:
                # hold the idle poll here until work arrives, the
                # broker closes, or `poll` seconds pass — then lease
                # again, which also reclaims leases expired meanwhile
                self._work.wait(self.poll)
                keys = self.table.lease(worker, max(1, max_n))
            now = time.time()
            traces = {}
            for key in keys:
                # mint once per key: a reassigned lease keeps its
                # trace id and its original first-grant stamp, so the
                # lease-to-publish histogram measures the fleet's
                # end-to-end latency including retries
                tid = self._trace_ids.get(key)
                if tid is None:
                    tid = self._trace_ids[key] = _tm.new_trace_id()
                    self._lease_started[key] = now
                traces[key] = tid
        if not keys:
            # nothing to grant is idle, not finished: the worker polls
            # again at once (the broker did the waiting) until the
            # broker begins shutting down. Idle polls leave no span
            # (the frame counter still counts them) — only grants
            # carry signal.
            return {
                "type": "specs",
                "leases": [],
                "done": self.closing,
                "wait": 0,
            }
        with _tm.span("broker.lease", worker=worker, keys=len(keys)):
            _M_LEASES.inc(len(keys), worker=worker)
            return {
                "type": "specs",
                "leases": [(key, self._by_key[key]) for key in keys],
                "done": False,
                # per-key trace ids: the worker adopts them around
                # execution so its spans join this broker's trace
                "traces": traces,
            }

    def submit(self, specs: Iterable[JobSpec]) -> str:
        """Admit a grid in-process, exactly as a ``submit`` frame
        would; returns its id for :meth:`stream`."""
        reply = self._handle_submit(list(specs))
        if reply["type"] != "grid":
            raise RemoteExecutionError(reply["message"])
        return reply["grid"]

    def _handle_submit(self, specs) -> dict:
        """Admit a whole grid into the live lease table.

        Each unique spec resolves against, in order: the in-memory
        result map, the attached cache, and — failing both — the lease
        table, which is extended with the new keys (tagged with the
        grid's id for fair-share scheduling) so the fleet starts
        executing them on its next lease poll. The reply names the
        grid (``grid-poll`` streams it back) and says how much was
        already served from cache.
        """
        if not isinstance(specs, (list, tuple)) or not specs:
            return {
                "type": "error",
                "message": "submit needs a non-empty spec list",
            }
        if not all(isinstance(spec, JobSpec) for spec in specs):
            return {
                "type": "error",
                "message": "submit specs must be JobSpec instances",
            }
        self.reap_grids()  # new arrivals sweep vanished clients out
        unique = list(dict.fromkeys(specs))
        keyed = [(self._key(spec), spec) for spec in unique]
        # probes and size estimates happen before the lock — file I/O
        # and pickling must not stall the fleet's lease/result traffic
        # — and cache probes run only for keys the live result map
        # cannot already serve (a resubmitted grid must not re-read
        # the whole cache)
        with self._lock:
            live = {key for key, _ in keyed if key in self.results}
        sized: Dict[str, Tuple[Any, int]] = {}
        for key, spec in keyed:
            if key in live:
                try:
                    value = self.results[key]
                except KeyError:
                    # evicted since the snapshot: the cache probe
                    # below serves it instead
                    continue
                size = self._result_sizes.get(key)
                if size is None:  # no record (e.g. cache-less broker)
                    size = _entry_size(spec, value)
                sized[key] = (value, size + _ENTRY_SLACK)
        if self.cache is not None:
            for key, spec in keyed:
                if key in sized:
                    continue
                # read the entry by hand instead of cache.get(): the
                # pickle's length falls out for free, so the hit is
                # never re-pickled just to size its wire entry
                try:
                    raw = self.cache.path(spec).read_bytes()
                    value = pickle.loads(raw)
                except Exception:
                    continue  # absent or corrupt entry: a miss
                sized[key] = (value, len(raw) + _ENTRY_SLACK)
        with self._lock:
            gid = f"g{self._grid_seq}"
            self._grid_seq += 1
            grid = GridState(id=gid, last_poll=time.monotonic())
            cached = 0
            new_keys: List[str] = []
            for key, spec in keyed:
                if key in self.results:
                    value = self.results[key]
                    _, size = sized.get(
                        key, (None, 0)
                    )
                    if not size:
                        # landed mid-submit: estimate from the raw
                        # size recorded at publication rather than
                        # pickling under the lock (brokers with a
                        # cache track sizes; the slack floor covers
                        # the rest, and the sliver where the record
                        # has not landed yet)
                        size = (
                            self._result_sizes.get(key, 0)
                            + _ENTRY_SLACK
                        )
                    grid.ready.append((spec, value, size))
                    cached += 1
                elif key in sized:
                    # live-map or cache hit from the pre-lock probe:
                    # results are deterministic, so a probed value is
                    # byte-identical to anything the fleet would
                    # produce — serve it even for an in-flight key
                    # (also covers a key evicted between the probe
                    # and this lock section)
                    value, size = sized[key]
                    grid.ready.append((spec, value, size))
                    cached += 1
                else:
                    grid.outstanding.add(key)
                    self._subscribers.setdefault(key, []).append(grid)
                    if key not in self._by_key:
                        self._by_key[key] = spec
                        new_keys.append(key)
                    else:
                        # a key that already failed permanently gets a
                        # fresh attempt budget: resubmission is the
                        # retry path, not a way to hang forever on a
                        # key nobody will ever lease again
                        self.table.rearm(key)
                        # ...and a DONE key whose value is gone from
                        # both memory (evicted) and the cache (pruned
                        # by an operator) can only be served by
                        # executing it again — deterministic, so the
                        # re-run is byte-identical
                        self.table.requeue(key)
            self.table.extend(new_keys, group=gid)
            if grid.outstanding:
                self._work.notify_all()
            self._grids[gid] = grid
        _M_SUBMITS.inc(outcome="admitted")
        return {
            "type": "grid",
            "grid": gid,
            "specs": len(unique),
            "cached": cached,
            "new": len(new_keys),
        }

    def _handle_grid_poll(self, gid: str, max_n: int) -> dict:
        """Stream a submitted grid's next results back to its client.

        Batches are bounded by count *and* by size: ``max_n`` reports
        that are individually fine on the worker->broker path could
        together exceed the frame cap, and an oversized
        ``grid-results`` frame would tear down the client connection
        instead of streaming (the same failure mode the per-report
        wire budget exists to prevent). A single report too big for
        *any* frame is delivered as that spec's failure rather than
        shipped.
        """
        with self._lock:
            grid = self._grids.get(gid)
            if grid is None:
                return {
                    "type": "error", "message": f"unknown grid {gid!r}"
                }
            grid.last_poll = time.monotonic()
            batch: List[Tuple[JobSpec, Any]] = []
            used = 0
            while grid.ready and len(batch) < max(1, max_n):
                spec, value, size = grid.ready[0]
                if size > _GRID_ITEM_LIMIT:
                    # no frame can carry it: deliver as a failure for
                    # this spec rather than emitting a frame the
                    # client must reject (mirrors the worker-side
                    # oversized-report handling)
                    grid.ready.popleft()
                    grid.failures[spec.label()] = (
                        f"report of ~{size} bytes exceeds the "
                        f"{_GRID_ITEM_LIMIT}-byte grid-results "
                        "frame limit"
                    )
                    continue
                if batch and used + size > _REPORT_BUDGET:
                    break
                grid.ready.popleft()
                batch.append((spec, value))
                used += size
            finished = not grid.outstanding and not grid.ready
        if batch:
            # pickled outside the lock, since pickling a
            # multi-megabyte batch must not stall the fleet
            return {
                "type": "grid-results",
                "grid": gid,
                "results": pickle.dumps(
                    batch, protocol=pickle.HIGHEST_PROTOCOL
                ),
                "count": len(batch),
                "done": False,
            }
        with self._lock:
            if finished:
                if not grid.done_sent:
                    grid.done_sent = True
                    _M_GRIDS_DONE.inc()
                # everything is delivered: the grid's state has no
                # further purpose, so a long-lived service drops it
                # (a duplicate poll gets unknown-grid, which clients
                # never send — they stop at grid-done)
                self._grids.pop(gid, None)
                return {
                    "type": "grid-done",
                    "grid": gid,
                    "failures": dict(grid.failures),
                }
            return {
                "type": "grid-results",
                "grid": gid,
                "results": [],
                "done": False,
                "wait": self.poll,
            }

    def reap_grids(self, max_idle: Optional[float] = None) -> int:
        """Drop submitted-grid state whose client has gone silent.

        A client that dies mid-stream leaves its grid pinning ready
        reports in broker memory forever; its *results* are safe in
        the result cache (resubmission replays them as cache hits),
        so after ``max_idle`` seconds without a poll the delivery
        state — ready deque, subscriptions, failure map — is
        reclaimed. Returns how many grids were dropped.
        """
        max_idle = (
            self.grid_idle_timeout if max_idle is None else max_idle
        )
        now = time.monotonic()
        with self._lock:
            stale = {
                gid
                for gid, grid in self._grids.items()
                if now - grid.last_poll > max_idle
            }
            for gid in stale:
                del self._grids[gid]
            if stale:
                for key, subs in list(self._subscribers.items()):
                    kept = [g for g in subs if g.id not in stale]
                    if kept:
                        self._subscribers[key] = kept
                    else:
                        del self._subscribers[key]
        return len(stale)

    def _handle_result(self, worker: str, key, data) -> dict:
        if key not in self._by_key:
            return {"type": "error", "message": f"unknown key {key!r}"}
        try:
            value = pickle.loads(data)
        except Exception as exc:
            return self._handle_error(
                worker, key, f"undecodable report: {exc}"
            )
        with self._lock:
            first = self.table.complete(key)
            if first:
                leased_at = self._lease_started.pop(key, None)
                trace_id = self._trace_ids.pop(key, None)
        if not first:
            _M_RESULTS.inc(outcome="duplicate")
            return {"type": "ok", "duplicate": True}
        arrived = time.time()
        with _tm.bind_trace(trace_id), _tm.span(
            "broker.publish", worker=worker, key=key
        ):
            reply = self._publish_result(worker, key, data, value)
        # a result counts once it is published; a refused publish
        # counts as an error, as a worker-reported failure does
        if reply["type"] != "ok":
            _M_RESULTS.inc(outcome="error")
            return reply
        _M_RESULTS.inc(outcome="first")
        _M_RESULT_BYTES.inc(len(data))
        if leased_at is not None:
            _M_LEASE_TO_PUBLISH.observe(max(0.0, arrived - leased_at))
        return reply

    def _publish_result(
        self, worker: str, key: str, raw, value
    ) -> dict:
        """First completion of ``key``: publish + fan out (the half of
        ``_handle_result`` the publish span times)."""
        # the file I/O stays outside the lock so slow cache disks do
        # not serialize the whole fleet's traffic
        spec = self._by_key[key]
        if self.cache is not None:
            try:
                # the worker name lands in the result index as the
                # entry's holder — the source of per-holder reports
                self.cache.put(spec, value, holder=worker)
            except Exception as exc:
                # e.g. a full or read-only cache disk: the report
                # never reached the cache, so its grids fail this spec
                # instead of waiting forever (the key stays DONE, and
                # a resubmission requeues it: its value is in neither
                # the result map nor the cache)
                message = (
                    "publishing the report failed: "
                    f"{type(exc).__name__}: {exc}"
                )
                with self._lock:
                    self._fail_subscribers(key, message)
                return {
                    "type": "error",
                    "message": f"{spec.label()}: {message}",
                }
        self.results[key] = value
        # size the grid-results entry from the raw pickle already in
        # hand (plus spec slack) — never pickle under the lock
        entry_size = len(raw) + _ENTRY_SLACK
        with self._lock:
            # fan the result out to every submitted grid waiting on
            # this key (popped: later submits hit self.results)
            for grid in self._subscribers.pop(key, ()):
                grid.ready.append((spec, value, entry_size))
                grid.outstanding.discard(key)
            self._evict_results(key, len(raw))
            self._fanout.notify_all()
        return {"type": "ok", "duplicate": False}

    def _evict_results(self, key: str, raw_len: int) -> None:
        """Bound the in-memory result map to ``results_budget``.

        Only a broker with a cache evicts: every entry is already
        durable on disk there (publish happens before this runs), so
        dropping the oldest in-memory copies loses nothing — a later
        submit of an evicted key is served by the cache probe, and the
        grids waiting on a key got their copy at fan-out. Caller holds
        the broker lock. Eviction is insertion-ordered and never
        removes the entry just added, so a result always survives
        long enough to race no one (submits check ``results`` under
        this same lock).
        """
        if self.cache is None:
            return
        # a re-executed key (requeued after eviction + cache prune,
        # or a duplicate completion racing a submit) replaces its
        # previous accounting instead of double-counting it
        self._result_bytes_held -= self._result_sizes.pop(key, 0)
        self._result_sizes[key] = raw_len
        self._result_bytes_held += raw_len
        while (
            self._result_bytes_held > self.results_budget
            and len(self._result_sizes) > 1
        ):
            oldest = next(iter(self._result_sizes))
            if oldest == key:
                break
            self._result_bytes_held -= self._result_sizes.pop(oldest)
            self.results.pop(oldest, None)

    def _handle_error(self, worker: str, key, message: str) -> dict:
        if key not in self._by_key:
            return {"type": "error", "message": f"unknown key {key!r}"}
        _M_RESULTS.inc(outcome="error")
        with self._lock:
            final = self.table.fail(key, worker)
            if final:
                # a permanently failed key will never produce a
                # result: deliver the failure to its waiting grids
                self._lease_started.pop(key, None)
                self._trace_ids.pop(key, None)
                self._fail_subscribers(key, message)
            else:
                self._work.notify_all()  # a retry is pending again
        return {"type": "ok", "final": final}

    def _fail_subscribers(self, key: str, message: str) -> None:
        """Deliver ``key``'s failure to every grid waiting on it.
        Caller holds the broker lock."""
        label = self._by_key[key].label()
        for grid in self._subscribers.pop(key, ()):
            grid.outstanding.discard(key)
            grid.failures[label] = message
        self._fanout.notify_all()

    # -- result streaming ----------------------------------------------

    def stream(
        self,
        gid: str,
        timeout: Optional[float] = None,
        workers: Optional[List] = None,
        first_worker_timeout: Optional[float] = None,
    ) -> Iterable[Tuple[JobSpec, Any]]:
        """Yield grid ``gid``'s ``(spec, report)`` pairs in-process as
        they fan out, until the grid is fully resolved.

        Each wake-up (a publication or permanent failure fanning out,
        or every ``poll`` seconds) counts as a poll of the grid, so
        :meth:`reap_grids` never drops it while this reads. Raises
        :class:`RemoteExecutionError` when specs failed permanently,
        when every process in ``workers`` (the locally spawned fleet,
        if any) has exited AND no worker — external fleets included —
        has spoken for half a lease ttl, when ``first_worker_timeout``
        seconds pass without any worker ever saying hello (a broker
        started with ``--remote-workers 0`` and no external fleet
        would otherwise wait forever), or when ``timeout`` seconds
        pass.
        """
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        # long enough that a live external worker's heartbeats (every
        # ttl/4) always land inside the window
        silence_limit = max(1.0, self.lease_ttl / 2.0)
        while True:
            with self._fanout:
                grid = self._grids.get(gid)
                if grid is None:
                    raise RemoteExecutionError(f"unknown grid {gid!r}")
                if grid.outstanding and not grid.ready:
                    self._fanout.wait(self.poll)
                grid.last_poll = time.monotonic()
                batch = [(spec, value) for spec, value, _ in grid.ready]
                grid.ready.clear()
                finished = not grid.outstanding
                if finished:
                    del self._grids[gid]
                    _M_GRIDS_DONE.inc()
            yield from batch
            if finished:
                if grid.failures:
                    raise _failures_error(grid.failures)
                return
            if (
                workers
                and all(not p.is_alive() for p in workers)
                and time.monotonic() - self._last_activity
                > silence_limit
            ):
                # local fleet gone and nothing external has spoken
                # either: fail fast instead of hanging forever
                raise RemoteExecutionError(
                    "all local workers exited and the fleet has "
                    f"gone silent with work remaining "
                    f"({self._counts_text()})"
                )
            if (
                first_worker_timeout is not None
                and not self._workers
                and time.monotonic() - start > first_worker_timeout
            ):
                where = (
                    f"{self.address[0]}:{self.address[1]}"
                    if self.address else "the broker"
                )
                raise RemoteExecutionError(
                    f"no workers connected within "
                    f"{first_worker_timeout:g}s — attach one with: "
                    f"ltp-repro worker --connect {where}, or pass "
                    "--remote-workers N to fork local ones"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise RemoteExecutionError(
                    f"grid unresolved after {timeout:g}s "
                    f"({self._counts_text()})"
                )

    def _counts_text(self) -> str:
        counts = self.table.counts()
        return ", ".join(f"{n} {state}" for state, n in counts.items())


# -- worker ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerStats:
    """One worker's accounting, returned by :func:`run_worker`: its
    ``repro_worker_executed_total`` outcomes while it ran."""

    name: str
    executed: int
    failed: int

    @property
    def leased(self) -> int:
        """A worker finishes every leased spec, executed or failed,
        before it leases again, so at a clean exit this is the sum."""
        return self.executed + self.failed


def run_worker(
    address: Tuple[str, int],
    batch: int = 1,
    trace_root: Optional[str] = None,
    name: Optional[str] = None,
    auth_token: Optional[str] = None,
) -> WorkerStats:
    """Connect to a broker, execute leased specs until the grid is done.

    This is the body of ``repro worker --connect``. The worker leases
    up to ``batch`` specs per request, executes them with the standard
    workload/timing stack (attaching the persistent trace cache at
    ``trace_root``, if given), reports each pickled result, and
    heartbeats its outstanding leases every ``ttl / 4`` seconds on a
    second connection so long simulations stay leased. A trace missing from
    the per-process memo and the trace cache is built locally. With
    ``auth_token`` set, both connections run the v3 HMAC
    handshake before any other frame (required against an
    authenticated broker; harmless against an open one). Raises
    :class:`ProtocolError`/``OSError`` when the broker vanishes, and
    ``OSError`` when it stops answering for :data:`REQUEST_TIMEOUT`
    seconds.
    """
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    since = _tm.Baseline(_W_EXECUTED)
    previous = _execution._swap_trace_cache(
        TraceCache(trace_root) if trace_root else None
    )
    sock = None
    stream = None
    beat: Optional[threading.Thread] = None
    held: Set[str] = set()
    held_lock = threading.Lock()
    stop = threading.Event()
    ttl = DEFAULT_LEASE_TTL

    def heartbeats() -> None:
        try:
            hb_sock = socket.create_connection(
                tuple(address), timeout=REQUEST_TIMEOUT
            )
        except OSError:
            return
        hb_stream = hb_sock.makefile("rwb")
        try:
            if auth_token:
                # the second connection authenticates independently:
                # broker auth state is per-connection, not per-worker
                authenticate(hb_stream, auth_token, worker_name)
            rtt: Optional[float] = None
            while not stop.wait(max(0.05, ttl / 4.0)):
                with held_lock:
                    keys = sorted(held)
                # every beat ships this worker's registry snapshot and
                # the round-trip measured on the *previous* beat; the
                # broker stamps both into /healthz and fleet /metrics
                frame = {
                    "type": "heartbeat",
                    "worker": worker_name,
                    "keys": keys,
                }
                if rtt is not None:
                    frame["rtt"] = round(rtt, 6)
                frame["metrics"] = _tm.registry().snapshot(
                    prefixes=_WORKER_METRIC_PREFIXES
                )
                sent = time.perf_counter()
                _request(hb_stream, frame)
                rtt = time.perf_counter() - sent
        except (OSError, ProtocolError):
            pass  # broker went away; the main loop will notice
        finally:
            try:
                hb_stream.close()
                hb_sock.close()
            except OSError:
                pass

    try:
        sock = socket.create_connection(
            tuple(address), timeout=REQUEST_TIMEOUT
        )
        stream = sock.makefile("rwb")
        if auth_token:
            authenticate(stream, auth_token, worker_name)
        welcome = _request(stream, {
            "type": "hello",
            "worker": worker_name,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        })
        if welcome.get("type") != "welcome":
            # e.g. an authenticated broker refusing an un-tokened
            # worker: surface the broker's message, not a hang
            raise ProtocolError(
                "broker refused hello: "
                f"{welcome.get('message', welcome)!r}"
            )
        ttl = float(welcome.get("lease_ttl", DEFAULT_LEASE_TTL))
        beat = threading.Thread(
            target=heartbeats, name="worker-heartbeat", daemon=True
        )
        beat.start()
        while True:
            reply = _request(stream, {
                "type": "lease", "worker": worker_name, "max": batch,
            })
            leases = reply.get("leases", [])
            if not leases:
                if reply.get("done"):
                    break
                time.sleep(float(reply.get("wait", 0.5)))
                continue
            with held_lock:
                held.update(key for key, _ in leases)
            lease_traces = reply.get("traces") or {}
            for key, spec in leases:
                try:
                    # adopt the broker-minted trace id so this span
                    # and the broker's publish span stitch into one
                    # cross-process trace for the key
                    with _tm.bind_trace(lease_traces.get(key)), \
                            _tm.span(
                                "worker.execute",
                                worker=worker_name,
                                kind=spec.kind,
                            ):
                        value = _execution.execute_spec(spec)
                    data = pickle.dumps(
                        value, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    if len(data) > _REPORT_BUDGET:
                        raise ValueError(
                            f"pickled report of {len(data)} bytes "
                            f"exceeds the {_REPORT_BUDGET}-byte wire "
                            "budget"
                        )
                    reply = _request(stream, {
                        "type": "result",
                        "worker": worker_name,
                        "key": key,
                        "report": data,
                    })
                    if reply.get("type") == "error":
                        # the broker refused the result (it could not
                        # publish it): the spec failed, not executed
                        _W_EXECUTED.inc(outcome="failed")
                    else:
                        _W_EXECUTED.inc(outcome="ok")
                except (OSError, ProtocolError):
                    raise  # lost the broker: nothing left to report to
                except Exception:
                    _W_EXECUTED.inc(outcome="failed")
                    _request(stream, {
                        "type": "error",
                        "worker": worker_name,
                        "key": key,
                        "message": traceback.format_exc(limit=20),
                    })
                finally:
                    with held_lock:
                        held.discard(key)
        try:
            _request(stream, {"type": "bye", "worker": worker_name})
        except (OSError, ProtocolError):
            pass
    finally:
        stop.set()
        if beat is not None:
            beat.join(timeout=5)
        try:
            if stream is not None:
                stream.close()
            if sock is not None:
                sock.close()
        except OSError:
            pass
        _execution._swap_trace_cache(previous)
    return WorkerStats(
        name=worker_name,
        executed=since.count(_W_EXECUTED, outcome="ok"),
        failed=since.count(_W_EXECUTED, outcome="failed"),
    )


# -- grid submission client --------------------------------------------


class GridClient:
    """Submit ``JobSpec`` grids to a broker over the wire, stream results.

    The client side of the v2 ``submit`` protocol — the body of
    ``repro submit`` and of ``RemoteBackend(attach=...)``::

        client = GridClient(("serve-host", 7463))
        client.submit(specs)          # enqueue into the live table
        for spec, value in client.stream():
            ...                       # cache hits arrive immediately,
                                      # fresh executions as they finish
        client.close()

    One client, one connection, one grid at a time (submit again after
    a grid finishes to reuse the connection). Results arrive in
    completion order, not submission order. Raises
    :class:`RemoteExecutionError` when the grid finishes with
    permanently failed specs or ``timeout`` passes with no progress;
    :class:`ProtocolError`/``OSError`` when the broker vanishes or
    stops answering for :data:`REQUEST_TIMEOUT` seconds.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        name: Optional[str] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        self.name = (
            name or f"client-{socket.gethostname()}-{os.getpid()}"
        )
        self._sock = socket.create_connection(
            tuple(address), timeout=REQUEST_TIMEOUT
        )
        self._stream = self._sock.makefile("rwb")
        if auth_token:
            authenticate(self._stream, auth_token, self.name)
        self.grid: Optional[str] = None
        self.specs = 0
        self.cached = 0

    def submit(self, specs: Iterable[JobSpec]) -> dict:
        """Enqueue a grid; returns the broker's ``grid`` reply (grid
        id, unique spec count, broker-side cache hits)."""
        reply = _request(
            self._stream, {"type": "submit", "specs": list(specs)}
        )
        if reply.get("type") != "grid":
            raise ProtocolError(
                f"submit rejected: {reply.get('message', reply)!r}"
            )
        self.grid = reply["grid"]
        self.specs = int(reply.get("specs", 0))
        self.cached = int(reply.get("cached", 0))
        return reply

    def stream(
        self, timeout: Optional[float] = None, batch: int = 32
    ) -> Iterable[Tuple[JobSpec, Any]]:
        """Yield ``(spec, report)`` until the submitted grid is done.

        ``timeout`` bounds the wait for the *whole* grid; it resets on
        nothing — a stalled serve fleet surfaces as the error, not a
        hang.
        """
        if self.grid is None:
            raise RemoteExecutionError("no grid submitted")
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            reply = _request(self._stream, {
                "type": "grid-poll",
                "worker": self.name,
                "grid": self.grid,
                "max": batch,
            })
            rtype = reply.get("type")
            if rtype == "grid-done":
                failures = reply.get("failures") or {}
                if failures:
                    raise _failures_error(failures)
                return
            if rtype != "grid-results":
                raise ProtocolError(
                    f"unexpected grid-poll reply "
                    f"{reply.get('message', reply)!r}"
                )
            results = reply.get("results", ())
            if isinstance(results, (bytes, bytearray)):
                # non-empty batches travel as one pickle
                try:
                    results = pickle.loads(results)
                except Exception as exc:
                    raise ProtocolError(
                        f"undecodable grid-results batch: {exc}"
                    ) from exc
            yield from results
            # the deadline bounds the whole grid, so it applies even
            # while results trickle in — not only to empty polls
            if deadline is not None and time.monotonic() > deadline:
                raise RemoteExecutionError(
                    f"submitted grid unresolved after {timeout:g}s"
                )
            if not results:
                time.sleep(float(reply.get("wait", 0.2)))

    def close(self) -> None:
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GridClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def submit_grid(
    address: Tuple[str, int],
    specs: Iterable[JobSpec],
    timeout: Optional[float] = None,
    name: Optional[str] = None,
    auth_token: Optional[str] = None,
) -> Dict[JobSpec, Any]:
    """One-shot convenience: submit ``specs`` to a serve-mode broker
    and collect the whole grid as ``spec -> report``."""
    with GridClient(
        address, name=name, auth_token=auth_token
    ) as client:
        client.submit(specs)
        return dict(client.stream(timeout=timeout))


# -- backend -----------------------------------------------------------


@dataclass
class RemoteBackend(ExecutionBackend):
    """Broker-side backend: serve misses to ``repro worker`` processes.

    Attributes:
        listen: ``(host, port)`` to bind; port 0 picks a free one.
        workers: local worker processes to fork (0 = wait for external
            ``repro worker --connect`` fleets only).
        lease_ttl: seconds without a heartbeat before a lease is
            reassigned.
        batch: specs granted per worker lease request.
        poll: seconds the broker holds an idle worker's lease poll.
        max_attempts: execution attempts per spec before giving up.
        timeout: overall safety limit for one grid, ``None`` = wait.
        announce: callback receiving the bound ``host:port`` string.
        wait_workers_timeout: with ``workers == 0``, how long to wait
            for the first external worker before failing the run
            (``None`` = wait forever, after warning).
        attach: ``(host, port)`` of a live ``repro serve`` broker —
            instead of starting its own broker and fleet, the backend
            submits the miss grid there and streams the results back
            (``publishes`` then flips off, so this runner's own cache
            still records them locally).
        auth_token: shared wire-auth secret — enforced by the broker
            this backend starts, or presented to the serve broker it
            attaches to (and to the local workers it forks).
        warn: callback for operator warnings (e.g. a 0-worker broker
            waiting on external fleets).
    """

    listen: Tuple[str, int] = ("127.0.0.1", 0)
    workers: int = 1
    lease_ttl: float = DEFAULT_LEASE_TTL
    batch: int = 1
    poll: float = 0.1
    max_attempts: int = 3
    timeout: Optional[float] = None
    wait_workers_timeout: Optional[float] = None
    attach: Optional[Tuple[str, int]] = None
    auth_token: Optional[str] = None
    announce: Optional[Callable[[str], None]] = field(
        default=None, repr=False, compare=False
    )
    warn: Optional[Callable[[str], None]] = field(
        default=None, repr=False, compare=False
    )
    #: the last run's broker, for stats introspection
    broker: Optional[Broker] = field(
        default=None, repr=False, compare=False
    )

    name = "remote"
    publishes = True

    def __post_init__(self) -> None:
        if self.attach is not None:
            # the serve broker publishes into *its* cache, not this
            # runner's — the Runner must cache.put() what streams back
            self.publishes = False

    def run(self, specs, runner):
        if self.attach is not None:
            yield from self._run_attached(specs)
            return
        broker = Broker(
            cache=runner.cache,
            lease_ttl=self.lease_ttl,
            listen=self.listen,
            poll=self.poll,
            max_attempts=self.max_attempts,
            auth_token=self.auth_token,
        )
        self.broker = broker
        grid = broker.submit(specs)
        procs: List[multiprocessing.Process] = []
        try:
            host, port = broker.bind()
            if self.announce is not None:
                self.announce(f"{host}:{port}")
            if self.workers == 0 and self.warn is not None:
                bound = (
                    "forever" if self.wait_workers_timeout is None
                    else f"up to {self.wait_workers_timeout:g}s"
                )
                self.warn(
                    "no local workers forked — waiting "
                    f"{bound} for external `ltp-repro worker --connect "
                    f"{host}:{port}` fleets"
                )
            # fork local workers before the serving thread starts so
            # children never inherit a mid-operation lock; their
            # connects queue in the listen backlog until serve() runs
            for index in range(self.workers):
                proc = multiprocessing.Process(
                    target=run_worker,
                    kwargs=dict(
                        address=(host, port),
                        batch=self.batch,
                        trace_root=_trace_root(runner),
                        name=f"local-{index}-{os.getpid()}",
                        auth_token=self.auth_token,
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            broker.serve()
            yield from broker.stream(
                grid,
                timeout=self.timeout,
                workers=procs or None,
                first_worker_timeout=(
                    self.wait_workers_timeout if not procs else None
                ),
            )
            # the grid is resolved: idle workers leave on their next
            # lease poll (a foreign grid admitted meanwhile ends here)
            broker.begin_shutdown()
            for proc in procs:
                proc.join(timeout=10)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
            broker.stop()

    def _run_attached(self, specs):
        """Resolve the misses through a live serve-mode broker."""
        host, port = self.attach
        if self.announce is not None:
            self.announce(f"{host}:{port}")
        client = GridClient(
            (host, port),
            name=f"attach-{os.getpid()}",
            auth_token=self.auth_token,
        )
        try:
            client.submit(specs)
            yield from client.stream(timeout=self.timeout)
        finally:
            client.close()
