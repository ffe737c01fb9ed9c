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
the serve-mode v2 frames ``submit``/``grid-poll``/``grid-results``/
``grid-done``, the multi-tenant v3 frames ``auth``/``challenge``
(HMAC handshake), ``drain`` (graceful worker retirement), and
``busy`` (per-client quota backpressure), and — when trace shipping
is on — ``trace-fetch``/``trace``. Workers execute leased specs with
:func:`repro.runner.runner.execute_spec` plus their local trace cache,
and stream pickled reports back for the broker to publish. Report
payloads travel through the broker-advertised codec
(:mod:`repro.codecs`), so ``paper``-size reports ship compressed.

**Trace distribution** (``ship_traces=True`` / ``run-all
--ship-traces``): re-synthesizing a multi-megabyte ``ProgramSet`` on
every cold worker is the dominant fleet start-up cost, so the broker
becomes the single build site. The ``welcome`` frame advertises
``ship_traces`` and the wire ``codec``; each lease grant carries
*trace offers* — the :func:`~repro.workloads.trace_cache.trace_key`
content addresses (sha256 of ``Workload.fingerprint()``) of the
granted specs' traces. A worker that has neither the trace memoized
nor in its local trace cache sends ``trace-fetch`` with the key; the
broker builds (or loads from its own trace cache) the ``ProgramSet``
**once fleet-wide**, packs it through the codec, and replies with the
blob plus a sha256 digest of the raw pickle. The worker verifies the
reply addresses the key it derived from the spec itself, that the
payload decodes and matches the digest, and that it unpickles to a
``ProgramSet`` — any failure (corrupt, truncated, digest mismatch,
unknown codec) falls back to a local build without failing the spec.
Cold-fleet trace cost drops from O(workers x builds) to O(builds).

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

**Serve mode** (``Broker(persistent=True)``, wrapped by
:class:`repro.fleet.FleetService` / ``repro serve``) lifts the
one-grid lifetime: the broker starts with an empty lease table, stays
up across grids, and grows the protocol's submission frames (v2) —
``submit`` enqueues a whole JobSpec grid (a *namespace* over the
fleet-wide deduplicated key space), ``grid-poll`` streams that grid's
results back to its submitting client (``grid-results`` batches, then
one ``grid-done`` carrying any permanent failures), and idle workers
are told to keep waiting rather than exit, until
:meth:`Broker.begin_shutdown`. :class:`GridClient` is the client side;
``RemoteBackend(attach=...)`` adapts it to the backend contract so a
whole ``run-all`` can ride an already-running service.
"""

from __future__ import annotations

import hashlib
import hmac
import multiprocessing
import os
import pickle
import queue
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
from repro.codecs import CodecError, blob_codec, get_codec, pack, unpack
from repro.runner.backends import ExecutionBackend, _trace_codec, _trace_root
from repro.runner.cache import ResultCache
from repro.runner.spec import JobSpec
from repro.trace.program import ProgramSet
from repro.workloads import TraceCache, cached_build, get_workload, trace_key

#: frame header: magic, protocol version, payload length
MAGIC = b"LTPW"
#: the only version either side emits or accepts; v2 added the
#: serve-mode frames (submit / grid-poll / grid-results / grid-done)
#: and welcome trace offers; v3 added the multi-tenant frames (auth /
#: challenge handshake, drain, busy) plus the optional submit
#: ``priority`` key
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

#: largest packed trace blob the broker will ship; a bigger one is
#: answered ``blob: None`` (worker builds locally) because the
#: oversized frame would be rejected *worker*-side, killing the
#: worker's connection instead of degrading gracefully
_TRACE_BUDGET = MAX_FRAME - 65536

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
#: whose *raw* pickle is this big cannot ship in any frame (the
#: worker-side budget checks the *packed* size, so a very
#: compressible giant report can get this far) — it is delivered as
#: that spec's failure instead of tearing down the client connection
_GRID_ITEM_LIMIT = MAX_FRAME - 65536


def _entry_size(spec: "JobSpec", value: Any) -> int:
    """Wire-size estimate of one ``(spec, report)`` grid-results item."""
    return len(
        pickle.dumps((spec, value), protocol=pickle.HIGHEST_PROTOCOL)
    )


# -- wire-layer instruments (see docs/observability.md) ----------------
# Broker-side series mirror BrokerStats live, so a scrape never waits
# for the exit summary; the lease-to-publish histogram is the fleet's
# end-to-end latency (first grant of a key to its publication).
_M_FRAMES = _tm.counter("repro_broker_frames_total")
_M_LEASES = _tm.counter("repro_broker_leases_total")
_M_RESULTS = _tm.counter("repro_broker_results_total")
_M_RESULT_BYTES = _tm.counter("repro_broker_result_bytes_total")
_M_SUBMITS = _tm.counter("repro_broker_submits_total")
_M_AUTH_FAILURES = _tm.counter("repro_broker_auth_failures_total")
_M_DRAINS = _tm.counter("repro_broker_drains_total")
_M_TRACE_FETCHES = _tm.counter("repro_broker_trace_fetches_total")
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
_W_EXEC_SECONDS = _tm.histogram("repro_worker_execute_seconds")

#: a worker whose last heartbeat is older than this many lease ttls is
#: reported stale (not live) in /healthz
_HEALTH_STALE_TTLS = 2.0


class ProtocolError(RuntimeError):
    """Malformed or truncated wire traffic, or a vanished peer."""


class RemoteExecutionError(RuntimeError):
    """The fleet could not resolve the grid (failures, dead workers,
    or timeout)."""


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


#: group tag for keys admitted without one (per-grid brokers, the
#: constructor's initial key set): scheduling degenerates to pure
#: insertion order when it is the only group, byte-identical to the
#: pre-fair-share grant order
DEFAULT_GROUP = ""


class LeaseTable:
    """In-memory exactly-once lease ledger with an injectable clock.

    Keys move ``PENDING -> LEASED -> DONE`` (or ``FAILED`` after
    ``max_attempts`` reported errors). A lease not heartbeaten within
    ``ttl`` seconds is reclaimed by :meth:`expire` — which every
    :meth:`lease` call runs first, so a polling worker is all it takes
    to reassign a dead peer's specs.

    **Fair-share scheduling**: every key belongs to a *group* (a
    submitted grid's id; :attr:`DEFAULT_GROUP` when untagged) with an
    integer priority. :meth:`lease` grants round-robin across groups
    that have pending keys — up to ``priority`` consecutive grants
    per group per rotation, insertion order within a group, rotation
    resuming after the last-granted group — so one huge grid cannot
    starve a small one: over any window of ``sum(priorities)``
    consecutive grants, every group with pending keys receives at
    least its ``priority`` of them. With a single group this is
    exactly the original insertion-order grant, which is what keeps
    backend-conformance byte-identity intact. All tie-breaks are by
    admission order, so the schedule is deterministic.
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
        #: key -> last error message, for keys that exhausted attempts
        self.errors: Dict[str, str] = {}
        #: expired leases reclaimed for reassignment, cumulative
        self.reclaimed = 0
        #: admission-ordered group -> priority (weight per rotation)
        self._groups: Dict[str, int] = {DEFAULT_GROUP: 1}
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
        self,
        keys: Iterable[str],
        group: str = DEFAULT_GROUP,
        priority: int = 1,
    ) -> int:
        """Admit new pending keys mid-flight (how a serve-mode broker
        enqueues a submitted grid into the live table), tagged with
        the submitting grid's ``group`` and scheduling ``priority``.
        Keys already tracked — whatever their state — are left
        untouched and keep their original group; returns how many
        were new."""
        priority = max(1, int(priority))
        if group not in self._groups:
            self._groups[group] = priority
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
        self.errors.pop(key, None)
        return True

    def rearm(self, key: str) -> bool:
        """Reset a permanently FAILED key to PENDING with a fresh
        attempt budget (a resubmitted grid on a long-lived broker is
        an operator's retry — a FAILED key must not poison every
        future grid that contains it). True iff the key was FAILED."""
        return self._reset_to_pending(key, FAILED)

    def requeue(self, key: str) -> bool:
        """Reset a DONE key to PENDING (serve mode: its published
        value was evicted from broker memory *and* is gone from the
        cache — e.g. an operator pruned the live serve cache — so a
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
                quota = max(1, self._groups.get(group, 1))
                bucket = buckets[group]
                while quota and bucket and len(granted) < max_n:
                    key = bucket.popleft()
                    self._state[key] = LEASED
                    self._leases[key] = LeaseInfo(
                        owner=owner, expires=now + self.ttl
                    )
                    granted.append(key)
                    self._rr_last = group
                    quota -= 1
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
        self.errors.pop(key, None)
        return True

    def fail(self, key: str, owner: str, message: str) -> bool:
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
            self.errors[key] = message
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

    def done(self) -> bool:
        return all(
            state in (DONE, FAILED) for state in self._state.values()
        )

    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for state in self._state.values():
            out[state] += 1
        return out


# -- broker ------------------------------------------------------------


@dataclass
class BrokerStats:
    """Fleet-side accounting for one grid."""

    specs: int = 0
    #: first-time completions (== specs on a clean run)
    results: int = 0
    #: redundant reports acknowledged and dropped
    duplicates: int = 0
    #: failed attempts reported by workers
    errors: int = 0
    #: specs handed out, including reassignments after expiry
    leases: int = 0
    #: packed report bytes received on result frames
    result_bytes: int = 0
    #: trace blobs served to workers over the wire
    trace_fetches: int = 0
    #: packed trace bytes shipped to workers
    trace_bytes: int = 0
    #: broker-side trace builds — at most one per unique fingerprint
    trace_builds: int = 0
    #: grids admitted through ``submit`` frames (serve mode)
    grids: int = 0
    #: submitted grids fully streamed back to their client
    grids_done: int = 0
    #: submits bounced with a ``busy`` reply (client over quota)
    rejected_submits: int = 0
    #: connections that failed (or never attempted) the auth handshake
    auth_failures: int = 0
    #: drain requests accepted for workers
    drains: int = 0
    workers: Set[str] = field(default_factory=set)


@dataclass
class GridState:
    """One submitted grid's delivery state inside a serve-mode broker.

    The broker's lease table and result publication are grid-blind —
    keys dedup fleet-wide — so a grid is purely a *subscription*: the
    ordered key set the client asked for, the results ready to stream
    on the next ``grid-poll``, the keys still outstanding, and the
    permanent failures. All fields are mutated under the broker lock.

    ``ready`` entries are ``(spec, report, wire-size estimate)`` —
    the size is computed once at append time (cheaply, from bytes the
    appender already holds) so batch budgeting in ``grid-poll`` never
    pickles under the broker lock.
    """

    id: str
    client: str
    specs: int
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
    daemon threads), :meth:`stream` (yield results as they arrive),
    :meth:`stop`. :meth:`start` is bind + serve.

    With ``persistent=True`` the broker is a long-lived *service*
    (``repro serve``): it may start with no specs at all, accepts
    whole grids mid-flight through ``submit`` frames (each grid gets a
    namespace id; keys dedup fleet-wide across grids, so a resubmitted
    spec is served from the live results or the cache instead of
    re-executed), streams each grid back to its submitting client via
    ``grid-poll``/``grid-results``/``grid-done``, and never tells idle
    workers the work is done — they wait for the next grid until
    :meth:`begin_shutdown` flips the ``closing`` flag.
    """

    def __init__(
        self,
        specs: Iterable[JobSpec] = (),
        cache: Optional[ResultCache] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        poll: float = 0.1,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
        ship_traces: bool = False,
        codec="none",
        trace_cache: Optional[TraceCache] = None,
        persistent: bool = False,
        results_budget: int = 256 * 1024 * 1024,
        grid_idle_timeout: float = 3600.0,
        auth_token: Optional[str] = None,
        max_pending_per_client: Optional[int] = None,
    ) -> None:
        unique = list(dict.fromkeys(specs))
        self.cache = cache
        self.lease_ttl = lease_ttl
        self.poll = poll
        self.codec = get_codec(codec)
        self.ship_traces = ship_traces
        self.trace_cache = trace_cache
        self.persistent = persistent
        #: shared wire-auth secret; None = open broker (no handshake
        #: required, auth frames acknowledged as already-authenticated)
        self.auth_token = auth_token
        #: per-client cap on outstanding (not-yet-resolved) submitted
        #: specs; a submit that would exceed it bounces with a
        #: ``busy`` frame carrying a retry-after instead of admitting
        #: unbounded work. None = no quota.
        self.max_pending_per_client = max_pending_per_client
        #: worker names marked for graceful retirement: their next
        #: lease poll answers done+drain instead of granting, so the
        #: worker finishes its in-flight batch, says bye, and exits
        self._draining: Set[str] = set()
        #: serve mode: cap on raw-report bytes held in self.results —
        #: older entries are evicted once they are safely in the
        #: cache, so a long-lived service cannot grow without bound
        self.results_budget = results_budget
        #: serve mode: drop a submitted grid's delivery state once its
        #: client has neither polled nor resubmitted for this long
        self.grid_idle_timeout = grid_idle_timeout
        #: set by begin_shutdown(): serve-mode workers see done=True
        #: on their next lease poll and exit cleanly
        self.closing = False
        self._by_key: Dict[str, JobSpec] = {
            self._key(spec): spec for spec in unique
        }
        #: lease key -> trace content address (ship_traces only)
        self._trace_of: Dict[str, str] = {}
        #: trace content address -> a spec that needs that trace
        self._trace_specs: Dict[str, JobSpec] = {}
        #: trace content address -> (packed blob, raw-pickle digest),
        #: or None for a blob too big to ship; populated only when no
        #: trace-cache file can serve later fetches (RAM bound)
        self._trace_blobs: Dict[str, Optional[Tuple[bytes, str]]] = {}
        #: trace content address -> raw-pickle digest of the
        #: cache-file blob (avoids re-hashing per fetch)
        self._trace_digests: Dict[str, str] = {}
        #: one lock per trace key, so two workers racing on the same
        #: trace build it once while builds of *different* traces
        #: proceed concurrently
        self._trace_locks: Dict[str, threading.Lock] = {}
        for key, spec in self._by_key.items():
            self._register_trace(key, spec)
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
        self._lease_started: Dict[str, float] = {}
        #: worker name -> health piggybacked on heartbeat frames:
        #: {"last_seen", "rtt", "keys", "metrics"} — feeds /healthz
        #: and fleet-merged /metrics (all mutated under self._lock)
        self._worker_health: Dict[str, dict] = {}
        self.table = LeaseTable(
            self._by_key,
            ttl=lease_ttl,
            clock=clock,
            max_attempts=max_attempts,
        )
        self.stats = BrokerStats(specs=len(unique))
        self.results: Dict[str, Any] = {}
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
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

    @staticmethod
    def _workload_of(spec: JobSpec):
        return get_workload(
            spec.workload, spec.size, **dict(spec.overrides)
        )

    def _register_trace(self, key: str, spec: JobSpec) -> None:
        """Track a spec's trace content address for trace shipping."""
        if not self.ship_traces:
            return
        tkey = trace_key(self._workload_of(spec))
        self._trace_of[key] = tkey
        self._trace_specs.setdefault(tkey, spec)
        self._trace_locks.setdefault(tkey, threading.Lock())

    def queue_depth(self) -> int:
        """Specs not yet resolved (pending + leased) — the scaling
        signal a :class:`~repro.fleet.FleetController` samples."""
        with self._lock:
            counts = self.table.counts()
        return counts[PENDING] + counts[LEASED]

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
        """Serve mode: tell idle workers the service is over.

        Workers polling an empty persistent table are normally told
        ``done: False`` so they wait for the next submitted grid; once
        ``closing`` is set they get ``done: True`` and exit cleanly —
        call this before :meth:`stop` so a supervised fleet drains
        instead of being terminated mid-poll.
        """
        self.closing = True

    def stop(self) -> None:
        """Stop accepting, then cut every connected peer off.

        Closing the listener alone would leave each connection's
        handler thread answering its worker forever. Every accepted
        socket is shut down as well, so the handlers read EOF and end
        (they are joined here — no frame is dispatched after ``stop``
        returns) and the workers on the other side see the broker
        vanish and exit. A serve-mode caller that wants idle workers
        to leave cleanly calls :meth:`begin_shutdown` first.
        """
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
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
            with self._lock:
                self.stats.auth_failures += 1
            _M_AUTH_FAILURES.inc()
            return (
                {
                    "type": "error",
                    "message": "authentication failed: bad token",
                },
                False, None, True,
            )
        with self._lock:
            self.stats.auth_failures += 1
        _M_AUTH_FAILURES.inc()
        return (
            {
                "type": "error",
                "message": "authentication required: start with an "
                           "auth handshake (--auth-token)",
            },
            False, None, True,
        )

    def drain_worker(self, name: str) -> bool:
        """Mark ``name`` for graceful retirement.

        Its next lease poll gets ``done: True, drain: True`` instead
        of a grant — the worker finishes whatever batch it is
        executing, reports every result, releases, and exits with
        zero stranded leases. The supervisor prefers this over
        ``terminate()`` when scaling down mid-queue. Idempotent;
        False only for an empty name.
        """
        if not name:
            return False
        with self._lock:
            if name not in self._draining:
                self._draining.add(name)
                self.stats.drains += 1
                _M_DRAINS.inc()
        return True

    # -- observability ---------------------------------------------------

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
                    "draining": name in self._draining,
                }
            grids_pending = {
                gid: len(grid.outstanding)
                for gid, grid in self._grids.items()
            }
            stats = {
                "specs": self.stats.specs,
                "results": self.stats.results,
                "duplicates": self.stats.duplicates,
                "errors": self.stats.errors,
                "leases": self.stats.leases,
                "grids": self.stats.grids,
                "grids_done": self.stats.grids_done,
                "rejected_submits": self.stats.rejected_submits,
                "auth_failures": self.stats.auth_failures,
                "drains": self.stats.drains,
            }
        return {
            "queue_depth": depth,
            "leased": leased,
            "live_workers": live,
            "workers": workers,
            "grids_pending": grids_pending,
            "draining": len(
                [w for w in workers.values() if w["draining"]]
            ),
            "closing": self.closing,
            "stats": stats,
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
        if mtype == "drain":
            return {
                "type": "ok",
                "draining": self.drain_worker(
                    str(message.get("target", ""))
                ),
            }
        if mtype == "hello":
            with self._lock:
                self.stats.workers.add(worker)
                offers = self._welcome_offers()
            welcome = {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "lease_ttl": self.lease_ttl,
                "poll": self.poll,
                "specs": self.stats.specs,
                "ship_traces": self.ship_traces,
                "codec": self.codec.name,
            }
            if offers:
                # proactive offer push: a single-fingerprint grid's
                # trace is fetchable before the first lease grant
                welcome["trace_offers"] = offers
            return welcome
        if mtype == "lease":
            with _tm.span("broker.lease", worker=worker) as s:
                reply = self._handle_lease(
                    worker, int(message.get("max", 1))
                )
                s["keys"] = len(reply.get("leases") or ())
            return reply
        if mtype in ("submit", "grid-poll") and not self.persistent:
            # a per-grid run-all broker serves exactly the grid its
            # owner streams: foreign submissions would extend the
            # lease table and fan stranger specs into that stream
            return {
                "type": "error",
                "message": "this broker serves a fixed grid; "
                           "submission needs a `repro serve` broker",
            }
        if mtype == "submit":
            return self._handle_submit(
                str(message.get("client", worker)),
                message.get("specs"),
                message.get("priority", 1),
            )
        if mtype == "grid-poll":
            return self._handle_grid_poll(
                str(message.get("grid", "")), int(message.get("max", 32))
            )
        if mtype == "trace-fetch":
            return self._handle_trace_fetch(str(message.get("key", "")))
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
            _M_HB_RTT.remove(worker=worker)
            return {"type": "ok", "returned": len(returned)}
        return {
            "type": "error", "message": f"unknown message type {mtype!r}"
        }

    def _welcome_offers(self) -> List[str]:
        """Trace offers to push proactively on ``welcome``: when every
        *unresolved* spec shares one workload fingerprint, every cold
        worker will need exactly that trace, so it is offered up front
        instead of waiting for the first lease grant. Only live work
        counts — a persistent broker that has drained grids of other
        fingerprints must keep offering for the single-fingerprint
        grid it is serving *now*. Caller holds the broker lock."""
        if not self.ship_traces:
            return []
        states = self.table.states()
        pending = {
            tkey
            for key, tkey in self._trace_of.items()
            if states.get(key) in (PENDING, LEASED)
        }
        return sorted(pending) if len(pending) == 1 else []

    def _handle_lease(self, worker: str, max_n: int) -> dict:
        with self._lock:
            if worker in self._draining:
                # graceful retirement: no grant, finish-and-exit. The
                # worker polls only between batches, so it holds no
                # leases here — release() is a defensive no-op that
                # guarantees zero stranded leases regardless.
                self._draining.discard(worker)
                self.table.release(worker)
                return {
                    "type": "specs",
                    "leases": [],
                    "done": True,
                    "drain": True,
                }
            # lease() reclaims expired leases first, so a dead
            # worker's specs are regranted right here
            keys = self.table.lease(worker, max(1, max_n))
            self.stats.leases += len(keys)
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
            if keys:
                done = False
            elif self.persistent:
                # a drained serve-mode table is idle, not finished:
                # workers wait for the next submitted grid until the
                # service begins shutting down
                done = self.closing
            else:
                done = self.table.done()
        if keys:
            _M_LEASES.inc(len(keys), worker=worker)
            reply = {
                "type": "specs",
                "leases": [(key, self._by_key[key]) for key in keys],
                "done": False,
                # per-key trace ids: the worker adopts them around
                # execution so its spans join this broker's trace
                "traces": traces,
            }
            if self.ship_traces:
                # trace-offer: advertise the content addresses of the
                # granted specs' traces as fetchable from this broker
                reply["trace_offers"] = sorted(
                    {self._trace_of[key] for key in keys}
                )
            return reply
        return {
            "type": "specs",
            "leases": [],
            "done": done,
            "wait": self.poll,
        }

    def _handle_submit(self, client: str, specs, priority=1) -> dict:
        """Admit a whole grid into the live lease table (serve mode).

        Each unique spec resolves against, in order: the in-memory
        result map, the attached cache, and — failing both — the lease
        table, which is extended with the new keys (tagged with the
        grid's id and ``priority`` for fair-share scheduling) so the
        fleet starts executing them on its next lease poll. The reply
        names the grid (``grid-poll`` streams it back) and says how
        much was already served from cache. A client already holding
        ``max_pending_per_client`` outstanding specs gets a ``busy``
        reply with a ``retry_after`` instead of admission.
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
        try:
            priority = max(1, int(priority))
        except (TypeError, ValueError):
            return {
                "type": "error",
                "message": f"submit priority must be an integer >= 1, "
                           f"got {priority!r}",
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
                # decode the entry by hand instead of cache.get(): the
                # raw pickle length falls out for free, so the hit is
                # never re-pickled just to size its wire entry
                try:
                    raw = unpack(self.cache.path(spec).read_bytes())
                    value = pickle.loads(raw)
                except Exception:
                    continue  # absent or corrupt entry: a miss
                sized[key] = (value, len(raw) + _ENTRY_SLACK)
        with self._lock:
            if self.max_pending_per_client is not None:
                # quota check under the same lock as admission: the
                # prospective outstanding count uses the exact
                # predicate the admission loop applies below
                incoming = sum(
                    1
                    for key, _ in keyed
                    if key not in self.results and key not in sized
                )
                held = sum(
                    len(g.outstanding)
                    for g in self._grids.values()
                    if g.client == client
                )
                if held + incoming > self.max_pending_per_client:
                    self.stats.rejected_submits += 1
                    _M_SUBMITS.inc(outcome="busy")
                    return {
                        "type": "busy",
                        "retry_after": max(1.0, self.poll * 10),
                        "outstanding": held,
                        "submitted": incoming,
                        "limit": self.max_pending_per_client,
                        "message": (
                            f"client {client!r} would hold "
                            f"{held + incoming} outstanding specs "
                            f"(quota {self.max_pending_per_client}) "
                            "— retry after the backlog drains"
                        ),
                    }
            gid = f"g{self._grid_seq}"
            self._grid_seq += 1
            grid = GridState(
                id=gid,
                client=client,
                specs=len(unique),
                last_poll=time.monotonic(),
            )
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
                        # pickling under the lock (submit is only
                        # reachable on persistent brokers, which
                        # track sizes; the slack floor covers the
                        # sliver where the record has not landed yet)
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
                        self._register_trace(key, spec)
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
            self.table.extend(new_keys, group=gid, priority=priority)
            self.stats.specs += len(new_keys)
            self.stats.grids += 1
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
            # packed through the broker codec like every other
            # payload path — outside the lock, since compressing a
            # multi-megabyte batch must not stall the fleet
            return {
                "type": "grid-results",
                "grid": gid,
                "results": pack(
                    pickle.dumps(
                        batch, protocol=pickle.HIGHEST_PROTOCOL
                    ),
                    self.codec,
                ),
                "count": len(batch),
                "done": False,
            }
        with self._lock:
            if finished:
                if not grid.done_sent:
                    grid.done_sent = True
                    self.stats.grids_done += 1
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

    def _handle_trace_fetch(self, key: str) -> dict:
        """Serve one packed trace blob (a ``trace-offer`` fulfilment).

        The first fetch of a key loads the blob from the broker's own
        trace cache (when its on-disk codec matches the wire codec the
        file bytes ship as-is — no unpickle/re-compress) or builds the
        trace once and packs it, so however many cold workers ask, the
        fleet pays for exactly one build per unique workload
        fingerprint. An unknown key, shipping disabled, or a blob past
        the wire budget answers ``blob: None`` and the worker builds
        locally.
        """
        if not self.ship_traces or key not in self._trace_specs:
            return {"type": "trace", "key": key, "blob": None}
        with self._trace_locks[key]:
            entry = self._trace_entry(key)
        if entry is None:
            return {"type": "trace", "key": key, "blob": None}
        blob, digest = entry
        with self._lock:
            self.stats.trace_fetches += 1
            self.stats.trace_bytes += len(blob)
        _M_TRACE_FETCHES.inc()
        return {
            "type": "trace",
            "key": key,
            "blob": blob,
            "digest": digest,
            "codec": self.codec.name,
        }

    def _trace_entry(self, key: str) -> Optional[Tuple[bytes, str]]:
        """``(packed blob, digest)`` for a known trace key, building
        at most once; ``None`` marks an unshippable (oversized) trace.
        Caller holds the key's lock."""
        if key in self._trace_blobs:  # memoized blob or refusal
            return self._trace_blobs[key]
        cache = self.trace_cache
        workload = self._workload_of(self._trace_specs[key])
        if cache is not None:
            blob = cache.load_blob(workload)
            if blob is not None:
                # serve the stored file bytes as-is; hash the raw
                # pickle once, then only re-read the (page-cached)
                # file per fetch instead of holding blobs in RAM.
                # A torn header or corrupt payload falls through to
                # cached_build, whose read path repairs the entry.
                try:
                    digest = None
                    if blob_codec(blob) == self.codec.name:
                        digest = self._trace_digests.get(key)
                        if digest is None:
                            digest = hashlib.sha256(
                                unpack(blob)
                            ).hexdigest()
                except CodecError:
                    digest = None
                if digest is not None:
                    if len(blob) > _TRACE_BUDGET:
                        self._trace_blobs[key] = None
                        return None
                    self._trace_digests[key] = digest
                    return blob, digest
        before = cache.builds if cache is not None else 0
        programs = cached_build(workload, cache)
        built = cache is None or cache.builds > before
        with self._lock:
            self.stats.trace_builds += int(built)
        raw = pickle.dumps(programs, protocol=pickle.HIGHEST_PROTOCOL)
        blob = pack(raw, self.codec)
        if len(blob) > _TRACE_BUDGET:
            # shipping it would tear down the worker connection on
            # the oversized frame; refuse once, workers build locally
            self._trace_blobs[key] = None
            return None
        entry = (blob, hashlib.sha256(raw).hexdigest())
        if (
            built
            and cache is not None
            and cache.codec.name == self.codec.name
        ):
            # cached_build just wrote the entry in the wire codec, so
            # the load_blob fast path serves every later fetch
            self._trace_digests[key] = entry[1]
        else:
            # no cache file in the wire codec can serve later
            # fetches (no cache, codec mismatch, or a pre-existing
            # file in another codec) — keep the packed blob in memory
            self._trace_blobs[key] = entry
        return entry

    def _handle_result(self, worker: str, key, data) -> dict:
        if key not in self._by_key:
            return {"type": "error", "message": f"unknown key {key!r}"}
        try:
            # unpack() is codec-transparent: raw pickled reports from
            # codec-less workers decode exactly like packed ones
            raw = unpack(data)
            value = pickle.loads(raw)
        except Exception as exc:
            return self._handle_error(
                worker, key, f"undecodable report: {exc}"
            )
        with self._lock:
            first = self.table.complete(key)
            if first:
                self.stats.results += 1
                self.stats.result_bytes += len(data)
                leased_at = self._lease_started.pop(key, None)
                trace_id = self._trace_ids.get(key)
            else:
                self.stats.duplicates += 1
        if not first:
            _M_RESULTS.inc(outcome="duplicate")
            return {"type": "ok", "duplicate": True}
        _M_RESULTS.inc(outcome="first")
        _M_RESULT_BYTES.inc(len(data))
        if leased_at is not None:
            _M_LEASE_TO_PUBLISH.observe(max(0.0, time.time() - leased_at))
        with _tm.bind_trace(trace_id), _tm.span(
            "broker.publish", worker=worker, key=key
        ):
            return self._publish_result(worker, key, raw, value)

    def _publish_result(
        self, worker: str, key: str, raw, value
    ) -> dict:
        """First completion of ``key``: publish + fan out (the half of
        ``_handle_result`` the publish span times)."""
        # the file I/O stays outside the lock so slow cache disks do
        # not serialize the whole fleet's traffic
        spec = self._by_key[key]
        if self.cache is not None:
            # the worker name lands in the result index as the entry's
            # holder — the source of per-holder throughput reports
            self.cache.put(spec, value, holder=worker)
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
        if not self.persistent:
            # the stream() queue has a consumer only on per-grid
            # brokers; a serve broker delivers via grid-poll, and an
            # undrained queue would pin every report forever
            self._queue.put((spec, value))
        return {"type": "ok", "duplicate": False}

    def _evict_results(self, key: str, raw_len: int) -> None:
        """Bound the in-memory result map of a long-lived broker.

        Only a *persistent* broker with a cache evicts: every entry is
        already durable on disk there (publish happens before this
        runs), so dropping the oldest in-memory copies loses nothing —
        a later submit of an evicted key is served by the cache probe.
        Per-grid brokers keep everything; their lifetime is one grid
        and ``results_by_spec()`` promises the full map. Caller holds
        the broker lock. Eviction is insertion-ordered and never
        removes the entry just added, so a result always survives
        long enough to race no one (submits check ``results`` under
        this same lock).
        """
        if not (self.persistent and self.cache is not None):
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
            self.stats.errors += 1
            final = self.table.fail(key, worker, message)
            if final:
                # a permanently failed key will never produce a
                # result: deliver the failure to its waiting grids
                label = self._by_key[key].label()
                for grid in self._subscribers.pop(key, ()):
                    grid.outstanding.discard(key)
                    grid.failures[label] = message
        return {"type": "ok", "final": final}

    # -- result streaming ----------------------------------------------

    def stream(
        self,
        timeout: Optional[float] = None,
        workers: Optional[List] = None,
        first_worker_timeout: Optional[float] = None,
    ) -> Iterable[Tuple[JobSpec, Any]]:
        """Yield ``(spec, report)`` as results arrive until the grid
        is fully resolved.

        Raises :class:`RemoteExecutionError` when specs failed
        permanently, when every process in ``workers`` (the locally
        spawned fleet, if any) has exited AND no worker — external
        fleets included — has spoken for half a lease ttl, when
        ``first_worker_timeout`` seconds pass without any worker ever
        saying hello (a broker started with ``--remote-workers 0`` and
        no external fleet would otherwise wait forever), or when
        ``timeout`` seconds pass.
        """
        start = time.monotonic()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        # long enough that a live external worker's heartbeats (every
        # ttl/4) always land inside the window
        silence_limit = max(1.0, self.lease_ttl / 2.0)
        served = 0
        while served < self.stats.specs:
            try:
                spec, value = self._queue.get(timeout=0.1)
                served += 1
                yield spec, value
                continue
            except queue.Empty:
                pass
            with self._lock:
                table_done = self.table.done()
                failures = dict(self.table.errors)
            if table_done:
                while True:  # drain results that raced the done check
                    try:
                        spec, value = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    served += 1
                    yield spec, value
                if served < self.stats.specs - len(failures):
                    # a completed result's queue.put is still in
                    # flight (publication happens after complete(),
                    # outside the lock) — keep polling for it
                    continue
                if failures:
                    raise RemoteExecutionError(
                        f"{len(failures)} spec(s) failed permanently "
                        f"on the fleet:\n"
                        + "\n".join(
                            f"  {self._by_key[key].label()}: "
                            + (
                                text.strip().splitlines()
                                or ["<no message>"]
                            )[-1]
                            for key, text in failures.items()
                        )
                    )
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
                and not self.stats.workers
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

    def results_by_spec(self) -> Dict[JobSpec, Any]:
        """``spec -> report`` for every completed key (post-run
        introspection; :meth:`stream` is the live path)."""
        return {
            self._by_key[key]: value
            for key, value in self.results.items()
        }

    def _counts_text(self) -> str:
        counts = self.table.counts()
        return ", ".join(f"{n} {state}" for state, n in counts.items())


# -- worker ------------------------------------------------------------


@dataclass
class WorkerStats:
    """One worker process's accounting, returned by :func:`run_worker`."""

    name: str = ""
    leased: int = 0
    executed: int = 0
    failed: int = 0
    #: trace blobs fetched from the broker instead of built locally
    traces_fetched: int = 0
    #: fetched blobs rejected by verification -> local build fallback
    trace_fallbacks: int = 0
    #: packed trace bytes received over the wire
    trace_bytes: int = 0
    #: True when the broker retired this worker with a drain frame
    #: (graceful scale-down) rather than the grid/service finishing
    drained: bool = False


def _verify_trace_blob(key: str, reply: Any) -> Optional[ProgramSet]:
    """Decode and verify one fetched trace blob.

    Checks, in order: the reply is a ``trace`` frame addressing the
    key the worker derived from its *own* spec (the content address —
    sha256 of ``Workload.fingerprint()``), the blob decodes under a
    known codec, the decompressed payload matches the shipped sha256
    digest (catching truncation and corruption), and the payload
    unpickles to a :class:`ProgramSet`. Any failure returns ``None``
    and the caller falls back to a local build — a bad blob never
    fails the spec.
    """
    if not isinstance(reply, dict) or reply.get("type") != "trace":
        return None
    if reply.get("key") != key:
        return None
    blob = reply.get("blob")
    if not isinstance(blob, (bytes, bytearray)):
        return None
    try:
        raw = unpack(bytes(blob))
    except CodecError:
        return None
    if reply.get("digest") != hashlib.sha256(raw).hexdigest():
        return None
    try:
        programs = pickle.loads(raw)
    except Exception:
        return None
    if not isinstance(programs, ProgramSet):
        return None
    return programs


def _prefetch_traces(
    stream,
    worker: str,
    leases,
    offers,
    stats: WorkerStats,
    cache: Optional[TraceCache],
) -> None:
    """Fetch offered trace blobs this worker cannot serve locally.

    For each leased spec whose trace is neither in the per-process
    memo nor in the local trace cache, request the broker's blob and
    — after verification — install it in the memo (and persist the
    packed blob locally) so :func:`execute_spec` never rebuilds it.
    Verification failures count as fallbacks; the later local build
    happens inside the normal execution path.
    """
    for key, spec in leases:
        mkey = (spec.workload, spec.size, spec.overrides)
        if mkey in _execution._PROGRAMS:
            continue
        workload = get_workload(
            spec.workload, spec.size, **dict(spec.overrides)
        )
        tkey = trace_key(workload)
        if tkey not in offers:
            continue
        if cache is not None and cache.path(workload).exists():
            continue  # local trace cache already holds it
        reply = _request(stream, {
            "type": "trace-fetch", "worker": worker, "key": tkey,
        })
        programs = _verify_trace_blob(tkey, reply)
        if programs is None:
            stats.trace_fallbacks += 1
            continue
        stats.traces_fetched += 1
        stats.trace_bytes += len(reply["blob"])
        _execution._PROGRAMS[mkey] = programs
        if cache is not None:
            cache.put_blob(workload, bytes(reply["blob"]))


def _prefetch_welcome_offers(
    stream,
    worker: str,
    offers,
    stats: WorkerStats,
    cache: Optional[TraceCache],
) -> None:
    """Fetch trace blobs the broker pushed proactively on ``welcome``.

    A welcome offer is a bare content address — no spec has been
    leased yet — so the verified blob can only be *persisted* (into
    the local trace cache, addressed by key); the per-process memo is
    filled later by :func:`~repro.workloads.trace_cache.cached_build`
    when the first lease executes. Without a local trace cache there
    is nowhere to put the blob and the offer is left for the usual
    lease-time prefetch.
    """
    if cache is None:
        return
    for tkey in sorted(offers):
        if cache.path_for_key(tkey).exists():
            continue
        reply = _request(stream, {
            "type": "trace-fetch", "worker": worker, "key": tkey,
        })
        programs = _verify_trace_blob(tkey, reply)
        if programs is None:
            # not counted as a fallback: the lease-time prefetch (or a
            # local build) still gets its chance at this trace
            continue
        stats.traces_fetched += 1
        stats.trace_bytes += len(reply["blob"])
        cache.put_blob_by_key(tkey, bytes(reply["blob"]))


def run_worker(
    address: Tuple[str, int],
    batch: int = 1,
    trace_root: Optional[str] = None,
    name: Optional[str] = None,
    fetch_traces: bool = True,
    trace_codec: str = "none",
    auth_token: Optional[str] = None,
) -> WorkerStats:
    """Connect to a broker, execute leased specs until the grid is done.

    This is the body of ``repro worker --connect``. The worker leases
    up to ``batch`` specs per request, executes them with the standard
    workload/timing stack (attaching the persistent trace cache at
    ``trace_root``, if given), reports each pickled result — packed
    through the broker-advertised codec — and heartbeats its
    outstanding leases every ``ttl / 4`` seconds on a second
    connection so long simulations stay leased. When the broker offers
    trace shipping (and ``fetch_traces`` is left on), cold traces are
    fetched as verified compressed blobs instead of rebuilt locally.
    With ``auth_token`` set, both connections run the v3 HMAC
    handshake before any other frame (required against an
    authenticated broker; harmless against an open one). A broker
    drain retires the worker cleanly between batches
    (``stats.drained``). Raises :class:`ProtocolError`/``OSError``
    when the broker vanishes, and ``OSError`` when it stops answering
    for :data:`REQUEST_TIMEOUT` seconds.
    """
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    stats = WorkerStats(name=worker_name)
    local_traces = (
        TraceCache(trace_root, codec=trace_codec) if trace_root else None
    )
    previous = _execution._swap_trace_cache(local_traces)
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
                if _tm.enabled():
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
        ship = fetch_traces and bool(welcome.get("ship_traces"))
        wire_codec = get_codec(welcome.get("codec", "none"))
        welcome_offers: Set[str] = set()
        if ship:
            welcome_offers = set(welcome.get("trace_offers", ()))
            if welcome_offers:
                _prefetch_welcome_offers(
                    stream, worker_name, welcome_offers,
                    stats, local_traces,
                )
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
                    stats.drained = bool(reply.get("drain"))
                    break
                time.sleep(float(reply.get("wait", 0.5)))
                continue
            with held_lock:
                held.update(key for key, _ in leases)
            stats.leased += len(leases)
            if ship:
                offers = welcome_offers | set(
                    reply.get("trace_offers", ())
                )
                if offers:
                    _prefetch_traces(
                        stream, worker_name, leases, offers,
                        stats, local_traces,
                    )
            lease_traces = reply.get("traces") or {}
            for key, spec in leases:
                try:
                    # adopt the broker-minted trace id so this span
                    # and the broker's publish span stitch into one
                    # cross-process trace for the key
                    started = time.perf_counter()
                    with _tm.bind_trace(lease_traces.get(key)), \
                            _tm.span(
                                "worker.execute",
                                worker=worker_name,
                                kind=spec.kind,
                            ):
                        value = _execution.execute_spec(spec)
                    _W_EXEC_SECONDS.observe(
                        time.perf_counter() - started, kind=spec.kind
                    )
                    data = pack(
                        pickle.dumps(
                            value, protocol=pickle.HIGHEST_PROTOCOL
                        ),
                        wire_codec,
                    )
                    if len(data) > _REPORT_BUDGET:
                        raise ValueError(
                            f"pickled report of {len(data)} bytes "
                            f"exceeds the {_REPORT_BUDGET}-byte wire "
                            "budget"
                        )
                    _request(stream, {
                        "type": "result",
                        "worker": worker_name,
                        "key": key,
                        "report": data,
                    })
                    stats.executed += 1
                    _W_EXECUTED.inc(outcome="ok")
                except (OSError, ProtocolError):
                    raise  # lost the broker: nothing left to report to
                except Exception:
                    stats.failed += 1
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
    return stats


# -- grid submission client --------------------------------------------


class GridClient:
    """Submit ``JobSpec`` grids to a serve-mode broker, stream results.

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

    def submit(
        self,
        specs: Iterable[JobSpec],
        priority: int = 1,
        quota_wait: Optional[float] = 60.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> dict:
        """Enqueue a grid; returns the broker's ``grid`` reply (grid
        id, unique spec count, broker-side cache hits).

        ``priority`` weights this grid's share of the fleet (fair-share
        round-robin grants up to ``priority`` specs per rotation). A
        ``busy`` reply — the broker's per-client quota backpressure —
        is retried after its advertised ``retry_after`` for up to
        ``quota_wait`` seconds (``None`` = keep retrying forever),
        then surfaced as :class:`RemoteExecutionError`. When the
        advertised ``retry_after`` overshoots the remaining budget,
        the final sleep is clamped to what's left and the submit is
        attempted once more *at* the deadline — the client spends its
        whole ``quota_wait`` before giving up, instead of forfeiting
        a window the broker may well have freed. ``clock``/``sleep``
        exist for tests.
        """
        specs = list(specs)
        message = {
            "type": "submit",
            "client": self.name,
            "specs": specs,
        }
        if priority != 1:
            message["priority"] = int(priority)
        deadline = (
            None if quota_wait is None else clock() + quota_wait
        )
        final_attempt = False
        while True:
            reply = _request(self._stream, message)
            if reply.get("type") == "busy":
                wait = max(0.05, float(reply.get("retry_after", 1.0)))
                if deadline is not None:
                    remaining = deadline - clock()
                    if final_attempt or remaining <= 0:
                        raise RemoteExecutionError(
                            "serve broker held the client over quota "
                            f"for {quota_wait:g}s: "
                            f"{reply.get('message', reply)!r}"
                        )
                    if wait > remaining:
                        # clamp: sleep out the budget and try once
                        # more at the deadline rather than raising
                        # with unspent quota_wait on the table
                        wait = remaining
                        final_attempt = True
                sleep(wait)
                continue
            if reply.get("type") != "grid":
                raise ProtocolError(
                    f"submit rejected: {reply.get('message', reply)!r}"
                )
            break
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
                    raise RemoteExecutionError(
                        f"{len(failures)} spec(s) failed permanently "
                        "on the serve fleet:\n"
                        + "\n".join(
                            f"  {label}: "
                            + (
                                text.strip().splitlines()
                                or ["<no message>"]
                            )[-1]
                            for label, text in failures.items()
                        )
                    )
                return
            if rtype != "grid-results":
                raise ProtocolError(
                    f"unexpected grid-poll reply "
                    f"{reply.get('message', reply)!r}"
                )
            results = reply.get("results", ())
            if isinstance(results, (bytes, bytearray)):
                # non-empty batches travel packed through the
                # broker's codec, like every other payload path
                try:
                    results = pickle.loads(unpack(bytes(results)))
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
    priority: int = 1,
    auth_token: Optional[str] = None,
) -> Dict[JobSpec, Any]:
    """One-shot convenience: submit ``specs`` to a serve-mode broker
    and collect the whole grid as ``spec -> report``."""
    with GridClient(
        address, name=name, auth_token=auth_token
    ) as client:
        client.submit(specs, priority=priority)
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
        poll: seconds idle workers wait between lease retries.
        max_attempts: execution attempts per spec before giving up.
        timeout: overall safety limit for one grid, ``None`` = wait.
        ship_traces: build each unique trace once broker-side and
            offer the packed blob to cold workers over the wire.
        codec: wire/trace compression codec name (``none``/``zlib``).
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
    ship_traces: bool = False
    codec: str = "none"
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
            specs,
            cache=runner.cache,
            lease_ttl=self.lease_ttl,
            listen=self.listen,
            poll=self.poll,
            max_attempts=self.max_attempts,
            ship_traces=self.ship_traces,
            codec=self.codec,
            trace_cache=runner.trace_cache,
            auth_token=self.auth_token,
        )
        self.broker = broker
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
        procs: List[multiprocessing.Process] = []
        try:
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
                        trace_codec=_trace_codec(runner),
                        auth_token=self.auth_token,
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            broker.serve()
            yield from broker.stream(
                timeout=self.timeout,
                workers=procs or None,
                first_worker_timeout=(
                    self.wait_workers_timeout if not procs else None
                ),
            )
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
