"""Property-based tests for the remote wire protocol and lease ledger.

Two surfaces:

* **Framing** — `encode_frame`/`read_frame` must round-trip arbitrary
  picklable payloads (single frames and back-to-back streams), and
  reject corrupt magic, truncated headers/payloads, and version skew
  with `ProtocolError` rather than garbage.
* **Lease state machine** — a model-based `RuleBasedStateMachine`
  drives a `LeaseTable` (injectable clock) through arbitrary
  interleavings of lease / heartbeat / complete / fail / release and
  clock advances, checking mutual exclusion (a key is never leased to
  two owners), exactly-once completion (done keys are never granted
  again), and expiry reassignment (a lease whose owner stops
  heartbeating past the ttl becomes grantable again).
"""

import io

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.runner.remote import (
    DONE,
    FAILED,
    LEASED,
    MAGIC,
    PENDING,
    LeaseTable,
    ProtocolError,
    encode_frame,
    read_frame,
)

# -- framing -----------------------------------------------------------

# arbitrary picklable payloads; NaN is excluded (x != x breaks the
# equality check, not the codec) and None is excluded at the *top*
# level only, because read_frame reserves None for clean EOF
_scalar = (
    st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False)
    | st.binary(max_size=64)
    | st.text(max_size=32)
)
_payloads = st.recursive(
    st.none() | _scalar,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
        | st.tuples(children, children)
    ),
    max_leaves=12,
)
_messages = _scalar | st.dictionaries(
    st.text(max_size=8), _payloads, max_size=4
)


@given(_messages)
@settings(max_examples=200)
def test_frame_round_trip(payload):
    assert read_frame(io.BytesIO(encode_frame(payload))) == payload


@given(st.lists(_messages, min_size=1, max_size=6))
@settings(max_examples=100)
def test_frame_stream_decodes_in_order(payloads):
    stream = io.BytesIO(b"".join(encode_frame(p) for p in payloads))
    decoded = []
    while True:
        message = read_frame(stream)
        if message is None:
            break
        decoded.append(message)
    assert decoded == payloads


def test_empty_stream_is_clean_eof():
    assert read_frame(io.BytesIO(b"")) is None


@given(st.binary(min_size=9, max_size=64))
def test_bad_magic_raises(data):
    assume(data[:4] != MAGIC)
    try:
        read_frame(io.BytesIO(data))
    except ProtocolError:
        pass
    else:  # pragma: no cover - hypothesis will shrink a counterexample
        raise AssertionError("bad magic accepted")


@given(_messages, st.integers(min_value=1, max_value=8))
@settings(max_examples=100)
def test_truncated_frame_raises(payload, chop):
    frame = encode_frame(payload)
    truncated = frame[: max(1, len(frame) - chop)]
    assume(len(truncated) < len(frame))
    try:
        read_frame(io.BytesIO(truncated))
    except ProtocolError:
        pass
    else:
        raise AssertionError("truncated frame accepted")


def test_version_skew_raises():
    frame = bytearray(encode_frame({"type": "hello"}))
    frame[4] = 99  # the version byte
    try:
        read_frame(io.BytesIO(bytes(frame)))
    except ProtocolError as exc:
        assert "version" in str(exc)
    else:
        raise AssertionError("version skew accepted")


# -- lease state machine -----------------------------------------------

KEYS = ("k1", "k2", "k3", "k4")
OWNERS = ("w1", "w2")
TTL = 10.0
MAX_ATTEMPTS = 2


class LeaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 1_000.0
        self.table = LeaseTable(
            KEYS,
            ttl=TTL,
            clock=lambda: self.now,
            max_attempts=MAX_ATTEMPTS,
        )
        #: reference model: key -> (state, owner, expires, attempts)
        self.model = {
            key: (PENDING, None, 0.0, 0) for key in KEYS
        }

    # -- model helpers -------------------------------------------------

    def _grantable(self):
        """Keys a lease() call may hand out, in original key order:
        pending ones plus leased ones whose lease has expired."""
        out = []
        for key in KEYS:
            state, owner, expires, attempts = self.model[key]
            if state == PENDING:
                out.append(key)
            elif state == LEASED and expires < self.now:
                out.append(key)
        return out

    # -- rules ---------------------------------------------------------

    @rule(
        owner=st.sampled_from(OWNERS),
        max_n=st.integers(min_value=1, max_value=4),
    )
    def lease(self, owner, max_n):
        expected = self._grantable()[:max_n]
        granted = self.table.lease(owner, max_n)
        assert granted == expected, (
            f"lease({owner},{max_n}) -> {granted}, expected {expected}"
        )
        # reclaimed-but-not-regranted keys fall back to pending
        for key in KEYS:
            state, _, expires, attempts = self.model[key]
            if state == LEASED and expires < self.now:
                self.model[key] = (PENDING, None, 0.0, attempts)
        for key in granted:
            attempts = self.model[key][3]
            self.model[key] = (
                LEASED, owner, self.now + TTL, attempts
            )

    @rule(owner=st.sampled_from(OWNERS))
    def heartbeat_all(self, owner):
        keys = list(KEYS)
        refreshed = self.table.heartbeat(owner, keys)
        expected = 0
        for key in keys:
            state, key_owner, _, attempts = self.model[key]
            if state == LEASED and key_owner == owner:
                self.model[key] = (
                    LEASED, owner, self.now + TTL, attempts
                )
                expected += 1
        assert refreshed == expected

    @rule(key=st.sampled_from(KEYS))
    def complete(self, key):
        first = self.table.complete(key)
        state, owner, expires, attempts = self.model[key]
        # exactly-once publication: only the first completion counts
        assert first == (state != DONE)
        self.model[key] = (DONE, None, 0.0, attempts)

    @rule(
        key=st.sampled_from(KEYS), owner=st.sampled_from(OWNERS)
    )
    def fail(self, key, owner):
        final = self.table.fail(key, owner, "boom")
        state, key_owner, expires, attempts = self.model[key]
        if (
            state != LEASED
            or key_owner != owner
            or expires < self.now
        ):
            # no *live* owner-matched lease: the error is stale
            # (expired, reassigned, or never held) and must not burn
            # the spec's attempt budget — the PR-8 fail() bugfix
            assert not final
            return
        attempts += 1
        if attempts >= MAX_ATTEMPTS:
            assert final
            self.model[key] = (FAILED, None, 0.0, attempts)
        else:
            assert not final
            self.model[key] = (PENDING, None, 0.0, attempts)

    @rule()
    def expire(self):
        reclaimed = self.table.expire()
        expected = []
        for key in KEYS:
            state, key_owner, expires, attempts = self.model[key]
            if state == LEASED and expires < self.now:
                self.model[key] = (PENDING, None, 0.0, attempts)
                expected.append(key)
        assert sorted(reclaimed) == sorted(expected)

    @rule(owner=st.sampled_from(OWNERS))
    def release(self, owner):
        returned = self.table.release(owner)
        expected = []
        for key in KEYS:
            state, key_owner, _, attempts = self.model[key]
            if state == LEASED and key_owner == owner:
                self.model[key] = (PENDING, None, 0.0, attempts)
                expected.append(key)
        assert sorted(returned) == sorted(expected)

    @rule(dt=st.floats(min_value=0.0, max_value=1.5 * TTL))
    def advance_clock(self, dt):
        # crossing the ttl is the worker-crash transition: an owner
        # that stops heartbeating silently loses its leases
        self.now += dt

    # -- invariants ----------------------------------------------------

    @invariant()
    def states_match_model(self):
        states = self.table.states()
        for key in KEYS:
            assert states[key] == self.model[key][0], (
                f"{key}: table {states[key]} != model {self.model[key]}"
            )

    @invariant()
    def done_is_terminal_and_never_leased(self):
        for key in KEYS:
            if self.model[key][0] == DONE:
                assert self.table.owner_of(key) is None

    @invariant()
    def terminal_keys_hold_no_lease_entry(self):
        # the FAILED-resurrection pin: fail() pops the lease entry
        # *before* marking FAILED, so a later expire() sweep can
        # never flip a terminal key back to PENDING
        for key in KEYS:
            if self.model[key][0] in (DONE, FAILED):
                assert self.table.owner_of(key) is None
                assert self.table.states()[key] == self.model[key][0]

    @invariant()
    def at_most_one_owner_per_key(self):
        for key in KEYS:
            state, owner, _, _ = self.model[key]
            table_owner = self.table.owner_of(key)
            if state == LEASED:
                assert table_owner == owner
            else:
                assert table_owner is None

    @invariant()
    def done_always_reachable(self):
        # no key can get stuck: everything is pending, leased (and
        # thus expirable), or terminal
        counts = self.table.counts()
        assert sum(counts.values()) == len(KEYS)


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    splits=st.lists(
        st.integers(min_value=1, max_value=3), min_size=2, max_size=2
    ),
    advance=st.floats(min_value=0.0, max_value=3 * TTL),
)
@settings(max_examples=60, deadline=None)
def test_expiry_reassigns_exactly_the_unheartbeaten(splits, advance):
    """After w1 and w2 lease disjoint batches and only w2 heartbeats
    at `advance` seconds, exactly w1's keys are re-grantable iff the
    clock passed the ttl."""
    now = [1_000.0]
    table = LeaseTable(KEYS, ttl=TTL, clock=lambda: now[0])
    w1_keys = table.lease("w1", splits[0])
    w2_keys = table.lease("w2", splits[1])
    assert not set(w1_keys) & set(w2_keys)
    now[0] += advance
    assert table.heartbeat("w2", w2_keys) == len(w2_keys)
    regrant = table.lease("w3", len(KEYS))
    if advance > TTL:
        # w1 went silent past the ttl: its keys (plus never-leased
        # leftovers) move to w3; w2's freshly heartbeaten ones do not
        assert set(w1_keys) <= set(regrant)
        assert table.reclaimed == len(w1_keys)
    else:
        assert not set(w1_keys) & set(regrant)
    assert not set(w2_keys) & set(regrant)


# -- lease-table regressions (PR 8) ------------------------------------


def test_stale_worker_error_burns_no_attempt_budget():
    """Regression: ``fail()`` counted an attempt (and could
    permanently FAIL the spec) when the reporting worker's lease had
    already *expired* — a dead-then-resurrected worker's stale error
    poisoned work another worker was about to run."""
    now = [1_000.0]
    table = LeaseTable(
        KEYS, ttl=TTL, clock=lambda: now[0], max_attempts=1
    )
    (key,) = table.lease("w1", 1)
    now[0] += TTL + 1.0  # w1 went silent past the ttl
    # the resurrected w1 reports an error on its long-dead lease:
    # with max_attempts=1 the old code FAILED the key permanently
    assert table.fail(key, "w1", "stale boom") is False
    assert table.states()[key] == LEASED  # left for expire()
    # the key is still grantable with its budget intact
    assert key in table.lease("w2", len(KEYS))
    assert table.owner_of(key) == "w2"


def test_reassigned_key_ignores_previous_owners_error():
    now = [1_000.0]
    table = LeaseTable(
        KEYS, ttl=TTL, clock=lambda: now[0], max_attempts=1
    )
    (key,) = table.lease("w1", 1)
    now[0] += TTL + 1.0
    assert key in table.lease("w2", len(KEYS))  # reassigned
    assert table.fail(key, "w1", "stale boom") is False
    assert table.owner_of(key) == "w2"


def test_failed_key_is_never_resurrected_by_expire():
    """A key FAILED via ``fail()`` holds no lease entry, so a later
    ``expire()`` sweep can never flip it back to PENDING."""
    now = [1_000.0]
    table = LeaseTable(
        ("k1",), ttl=TTL, clock=lambda: now[0], max_attempts=1
    )
    (key,) = table.lease("w1", 1)
    assert table.fail(key, "w1", "boom") is True  # live lease: final
    assert table.states()[key] == FAILED
    assert table.owner_of(key) is None
    now[0] += 2 * TTL
    assert table.expire() == []
    assert table.states()[key] == FAILED
    assert table.lease("w2", 1) == []


# -- fair-share scheduling ---------------------------------------------


def test_priority_weights_the_rotation():
    now = [1_000.0]
    table = LeaseTable((), ttl=TTL, clock=lambda: now[0])
    table.extend(["a1", "a2", "a3", "a4"], group="a", priority=2)
    table.extend(["b1", "b2", "b3", "b4"], group="b", priority=1)
    # weighted round-robin: two 'a' grants per 'b' grant
    assert table.lease("w", 6) == ["a1", "a2", "b1", "a3", "a4", "b2"]


@given(
    n=st.integers(min_value=1, max_value=12),
    batches=st.lists(
        st.integers(min_value=1, max_value=4), min_size=1, max_size=12
    ),
)
@settings(max_examples=60, deadline=None)
def test_single_group_lease_order_is_insertion_order(n, batches):
    """Byte-identity guard: with one group (every per-grid broker,
    and any serve broker with a single live grid) the fair-share
    scheduler degenerates to pure insertion order."""
    keys = [f"k{i}" for i in range(n)]
    table = LeaseTable(keys, ttl=TTL, clock=lambda: 1_000.0)
    granted = []
    for i, batch in enumerate(batches):
        granted.extend(table.lease(f"w{i}", batch))
    assert granted == keys[: len(granted)]


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=10),
        min_size=2,
        max_size=4,
    ),
    priorities=st.lists(
        st.integers(min_value=1, max_value=3),
        min_size=4,
        max_size=4,
    ),
    batch=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_no_group_is_starved(sizes, priorities, batch):
    """The fairness bound: while a group has pending keys, it never
    waits through more than ``sum(other groups' priorities)``
    consecutive grants to other groups before receiving one."""
    now = [1_000.0]
    table = LeaseTable((), ttl=TTL, clock=lambda: now[0])
    groups = {}
    for g, size in enumerate(sizes):
        name = f"g{g}"
        groups[name] = priorities[g % len(priorities)]
        table.extend(
            [f"{name}k{i}" for i in range(size)],
            group=name,
            priority=groups[name],
        )
    pending = {
        name: sizes[g] for g, name in enumerate(groups)
    }
    waited = {name: 0 for name in groups}
    while sum(pending.values()):
        granted = table.lease("w", batch)
        assert granted, "pending keys but nothing granted"
        for key in granted:
            name = key.split("k")[0]
            pending[name] -= 1
            waited[name] = 0
            for other in groups:
                if other != name and pending[other] > 0:
                    waited[other] += 1
                    bound = sum(
                        p for o, p in groups.items() if o != other
                    )
                    assert waited[other] <= bound, (
                        f"{other} starved: waited {waited[other]} "
                        f"grants (bound {bound})"
                    )
            table.complete(key)  # retire it; scheduling is the test
