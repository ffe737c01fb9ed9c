"""Unit tests for timing-model components: config, locks and stats,
plus the reference core's network and directory engine."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.timing.config import SystemConfig
from repro.timing.locks import LockManager
from repro.timing.stats import DirectoryStats, SelfInvalStats
from tests.oracle.directory_engine import DirectoryEngine
from tests.oracle.messages import Message, MsgType
from tests.oracle.network import Network


class TestSystemConfig:
    def test_default_round_trip_matches_table1(self):
        cfg = SystemConfig()
        assert cfg.clean_miss_round_trip == 416
        assert cfg.block_size == 32
        assert cfg.num_nodes == 32

    def test_remote_to_local_ratio_about_four(self):
        cfg = SystemConfig()
        ratio = cfg.clean_miss_round_trip / cfg.memory_service_time
        assert 3.5 <= ratio <= 4.5

    def test_home_interleaving(self):
        cfg = SystemConfig(num_nodes=4)
        assert [cfg.home_of(b) for b in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_nodes=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(network_latency=-1)


class TestNetwork:
    def test_constant_latency(self):
        net = Network(SystemConfig(num_nodes=2))
        arrival = net.send_at(0, 100.0)
        assert arrival == 100.0 + 8 + 80  # ni overhead + latency

    def test_interface_serialization(self):
        """Back-to-back sends from one node queue at its interface."""
        net = Network(SystemConfig(num_nodes=2))
        first = net.send_at(0, 0.0)
        second = net.send_at(0, 0.0)
        assert second == first + 8

    def test_other_nodes_unaffected(self):
        net = Network(SystemConfig(num_nodes=2))
        for _ in range(5):
            net.send_at(0, 0.0)
        assert net.send_at(1, 0.0) == 88.0

    def test_messages_counted(self):
        net = Network(SystemConfig(num_nodes=2))
        net.send_at(0, 0.0)
        net.send_at(1, 0.0)
        assert net.messages_sent == 2


class TestLockManager:
    def test_uncontended_acquire(self):
        locks = LockManager()
        assert locks.try_acquire(1, 0)
        assert locks.holder(1) == 0

    def test_fifo_grant_order(self):
        locks = LockManager()
        locks.try_acquire(1, 0)
        assert not locks.try_acquire(1, 1)
        assert not locks.try_acquire(1, 2)
        assert locks.release(1, 0) == 1
        assert locks.release(1, 1) == 2
        assert locks.release(1, 2) is None

    def test_release_by_non_holder_rejected(self):
        locks = LockManager()
        locks.try_acquire(1, 0)
        with pytest.raises(SimulationError):
            locks.release(1, 5)

    def test_queue_length(self):
        locks = LockManager()
        locks.try_acquire(1, 0)
        locks.try_acquire(1, 1)
        assert locks.queue_length(1) == 1


class _Calendar:
    """Minimal deterministic scheduler standing in for the event loop."""

    def __init__(self):
        self.events = []

    def schedule(self, time, kind, fn):
        self.events.append((time, len(self.events), kind, fn))

    def run(self):
        while self.events:
            self.events.sort()
            time, _, _, fn = self.events.pop(0)
            fn(time)


class TestDirectoryEngine:
    def _engine(self, handler):
        cal = _Calendar()
        stats = DirectoryStats()
        cfg = SystemConfig(num_nodes=2)
        eng = DirectoryEngine(0, cfg, cal.schedule, handler, stats)
        return eng, cal, stats

    def test_single_message_serviced(self):
        seen = []
        eng, cal, stats = self._engine(lambda m, t: seen.append((m, t)))
        eng.arrive(Message(MsgType.READ_REQ, src=1, block=5), 10.0)
        cal.run()
        assert len(seen) == 1
        msg, t_done = seen[0]
        assert t_done == 10.0 + 68 + 104  # request overhead + memory
        assert stats.mean_queueing == 0.0

    def test_pipelined_occupancy(self):
        """Second message starts engine_occupancy after the first, not
        after the first completes (the two-stage pipeline)."""
        done = []
        eng, cal, stats = self._engine(lambda m, t: done.append(t))
        eng.arrive(Message(MsgType.READ_REQ, src=1, block=1), 0.0)
        eng.arrive(Message(MsgType.READ_REQ, src=1, block=2), 0.0)
        cal.run()
        assert done[0] == 172.0
        assert done[1] == 52.0 + 172.0  # start at occupancy, not at 172
        assert stats.queueing_cycles == 52.0

    def test_queueing_recorded_per_message(self):
        eng, cal, stats = self._engine(lambda m, t: None)
        for i in range(4):
            eng.arrive(Message(MsgType.ACK_INV, src=1, block=i), 0.0)
        cal.run()
        assert stats.messages == 4
        # waits of 0, 52, 104, 156
        assert stats.queueing_cycles == 312.0

    def test_control_messages_cheaper_than_data(self):
        eng, cal, _ = self._engine(lambda m, t: None)
        data = eng.service_time_of(
            Message(MsgType.WRITEBACK, src=1, block=1)
        )
        ctrl = eng.service_time_of(
            Message(MsgType.ACK_INV, src=1, block=1)
        )
        assert data > ctrl

    def test_dirty_self_inval_costs_memory_write(self):
        eng, cal, _ = self._engine(lambda m, t: None)
        dirty = eng.service_time_of(
            Message(MsgType.SELF_INVAL, src=1, block=1, dirty=True)
        )
        clean = eng.service_time_of(
            Message(MsgType.SELF_INVAL, src=1, block=1, dirty=False)
        )
        assert dirty > clean

    def test_transaction_parks_requests(self):
        """Requests for a busy block wait for end_transaction."""
        order = []

        def handler(msg, t):
            order.append((msg.mtype, msg.src, t))
            if msg.src == 1 and msg.mtype is MsgType.READ_REQ:
                eng.begin_transaction(msg.block)

        eng, cal, _ = self._engine(handler)
        eng.arrive(Message(MsgType.READ_REQ, src=1, block=7), 0.0)
        eng.arrive(Message(MsgType.READ_REQ, src=2, block=7), 1.0)
        cal.run()
        assert len(order) == 1  # second request parked
        eng.end_transaction(7, 1000.0)
        cal.run()
        assert len(order) == 2
        assert order[1][1] == 2

    def test_completion_messages_never_park(self):
        order = []

        def handler(msg, t):
            order.append(msg.mtype)
            if msg.mtype is MsgType.READ_REQ:
                eng.begin_transaction(msg.block)

        eng, cal, _ = self._engine(handler)
        eng.arrive(Message(MsgType.READ_REQ, src=1, block=7), 0.0)
        eng.arrive(Message(MsgType.WRITEBACK, src=2, block=7), 1.0)
        cal.run()
        assert MsgType.WRITEBACK in order

    def test_address_interlock_same_block(self):
        """Two back-to-back requests for one block must not pipeline:
        the second is parked until the first's handler runs."""
        times = []
        eng, cal, _ = self._engine(lambda m, t: times.append(t))
        eng.arrive(Message(MsgType.READ_REQ, src=1, block=9), 0.0)
        eng.arrive(Message(MsgType.READ_REQ, src=2, block=9), 0.0)
        cal.run()
        assert times[1] >= times[0] + 172  # fully serialized


class TestSelfInvalStats:
    def test_timeliness_fraction(self):
        s = SelfInvalStats(fired=10, timely_correct=6, late_correct=2,
                           premature=1)
        assert s.correct == 8
        assert s.timeliness == pytest.approx(0.75)
        assert s.unresolved == 1

    def test_timeliness_zero_when_no_correct(self):
        assert SelfInvalStats().timeliness == 0.0
