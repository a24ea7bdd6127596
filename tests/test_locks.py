"""Unit tests for repro.sim.locks (shared/exclusive modes)."""

import pytest

from repro.sim.locks import EXCLUSIVE, SHARED, SiteLockManager


class TestRequestRelease:
    def test_grant_free(self):
        mgr = SiteLockManager("s1")
        assert mgr.request(0, "x")
        assert mgr.holder("x") == 0
        assert mgr.holders("x") == [0]
        assert mgr.mode("x") == EXCLUSIVE

    def test_queue_when_held(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        assert not mgr.request(1, "x")
        assert mgr.waiters("x") == [1]

    def test_release_grants_fifo(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(1, "x")
        mgr.request(2, "x")
        assert mgr.release(0, "x") == [1]
        assert mgr.holder("x") == 1
        assert mgr.waiters("x") == [2]

    def test_release_empty_queue(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        assert mgr.release(0, "x") == []
        assert mgr.holder("x") is None
        assert mgr.mode("x") is None

    def test_double_request_rejected(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        with pytest.raises(ValueError):
            mgr.request(0, "x")

    def test_double_wait_rejected(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(1, "x")
        with pytest.raises(ValueError):
            mgr.request(1, "x")

    def test_release_not_held_rejected(self):
        mgr = SiteLockManager("s1")
        with pytest.raises(ValueError):
            mgr.release(0, "x")

    def test_unknown_mode_rejected(self):
        mgr = SiteLockManager("s1")
        with pytest.raises(ValueError):
            mgr.request(0, "x", "IX")


class TestSharedMode:
    def test_shared_holders_coexist(self):
        mgr = SiteLockManager("s1")
        assert mgr.request(0, "x", SHARED)
        assert mgr.request(1, "x", SHARED)
        assert mgr.holders("x") == [0, 1]
        assert mgr.mode("x") == SHARED
        assert mgr.holder("x") is None  # not unique

    def test_exclusive_queues_behind_shared(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        assert not mgr.request(2, "x", EXCLUSIVE)
        assert mgr.release(0, "x") == []  # one reader left
        assert mgr.release(1, "x") == [2]  # writer takes over
        assert mgr.mode("x") == EXCLUSIVE

    def test_late_reader_does_not_starve_writer(self):
        # S S | X queued | S must queue behind the writer, not sneak in.
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", EXCLUSIVE)
        assert not mgr.request(2, "x", SHARED)
        assert mgr.waiters("x") == [1, 2]
        assert mgr.release(0, "x") == [1]
        assert mgr.release(1, "x") == [2]

    def test_release_grants_shared_batch(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", EXCLUSIVE)
        mgr.request(1, "x", SHARED)
        mgr.request(2, "x", SHARED)
        mgr.request(3, "x", EXCLUSIVE)
        assert mgr.release(0, "x") == [1, 2]  # the read batch
        assert mgr.mode("x") == SHARED
        assert mgr.waiters("x") == [3]
        assert mgr.release(1, "x") == []
        assert mgr.release(2, "x") == [3]

    def test_shared_after_shared_with_empty_queue(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", EXCLUSIVE)
        mgr.cancel_wait(1, "x")
        # Queue drained again: new readers join immediately.
        assert mgr.request(2, "x", SHARED)
        assert mgr.holders("x") == [0, 2]


class TestUpgrade:
    def test_sole_holder_upgrades_immediately(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        assert mgr.request(0, "x", EXCLUSIVE)
        assert mgr.mode("x") == EXCLUSIVE

    def test_upgrade_waits_for_other_readers(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        assert not mgr.request(0, "x", EXCLUSIVE)
        assert mgr.waiters("x") == [0]
        assert mgr.release(1, "x") == [0]
        assert mgr.mode("x") == EXCLUSIVE
        assert mgr.holders("x") == [0]

    def test_upgrade_jumps_the_queue(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        mgr.request(2, "x", EXCLUSIVE)  # plain waiter
        assert not mgr.request(0, "x", EXCLUSIVE)  # upgrade, goes first
        assert mgr.waiters("x") == [0, 2]
        assert mgr.release(1, "x") == [0]
        assert mgr.mode("x") == EXCLUSIVE

    def test_concurrent_upgrades_rejected(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        mgr.request(0, "x", EXCLUSIVE)
        with pytest.raises(ValueError):
            mgr.request(1, "x", EXCLUSIVE)

    def test_exclusive_holder_cannot_rerequest(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", EXCLUSIVE)
        with pytest.raises(ValueError):
            mgr.request(0, "x", EXCLUSIVE)

    def test_releasing_upgrader_drops_its_upgrade(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        mgr.request(0, "x", EXCLUSIVE)
        assert mgr.release(0, "x") == []  # abort path: S grant + upgrade go
        assert mgr.waiters("x") == []
        assert mgr.holders("x") == [1]


class TestCancelAndBulk:
    def test_cancel_wait(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(1, "x")
        mgr.cancel_wait(1, "x")
        assert mgr.waiters("x") == []
        assert mgr.release(0, "x") == []

    def test_cancel_wait_noop(self):
        mgr = SiteLockManager("s1")
        mgr.cancel_wait(1, "x")  # no error

    def test_release_all(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(0, "y")
        mgr.request(1, "x")
        released = dict(mgr.release_all(0))
        assert released == {"x": [1], "y": []}
        assert mgr.holder("x") == 1

    def test_release_all_shared(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        assert dict(mgr.release_all(0)) == {"x": []}
        assert mgr.holders("x") == [1]

    def test_held_by_and_waiting_for(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(0, "y")
        mgr.request(1, "y")
        assert mgr.held_by(0) == ["x", "y"]
        assert mgr.waiting_for(1) == ["y"]

    def test_involved_spans_modes(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        mgr.request(2, "x", EXCLUSIVE)
        assert mgr.involved() == [0, 1, 2]


class TestReadOnlyViews:
    """The wait index and the queues, as the detector, the sampler and
    the flight recorder read them."""

    def test_wait_index_lists_exactly_the_queued_requests(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(0, "y")
        mgr.request(1, "x")
        mgr.request(1, "y")
        mgr.request(2, "y")
        assert {t: set(e) for t, e in mgr.wait_index.items()} == {
            1: {"x", "y"}, 2: {"y"},
        }
        mgr.release(0, "x")  # grants 1 at x
        assert {t: set(e) for t, e in mgr.wait_index.items()} == {
            1: {"y"}, 2: {"y"},
        }
        mgr.cancel_wait(2, "y")
        mgr.release_all(0)  # grants 1 at y
        assert dict(mgr.wait_index) == {}

    def test_queues_keep_fifo_order_and_the_upgrade_in_front(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x", SHARED)
        mgr.request(1, "x", SHARED)
        mgr.request(2, "x", EXCLUSIVE)
        mgr.request(3, "x", SHARED)
        assert list(mgr.queues["x"].items()) == [
            (2, EXCLUSIVE), (3, SHARED),
        ]
        mgr.request(0, "x", EXCLUSIVE)  # upgrade: waits at the front
        assert list(mgr.queues["x"]) == [0, 2, 3]
        assert "y" not in mgr.queues

    def test_views_reject_writes(self):
        mgr = SiteLockManager("s1")
        mgr.request(0, "x")
        mgr.request(1, "x")
        with pytest.raises(TypeError):
            mgr.wait_index[2] = {"x"}
        with pytest.raises(TypeError):
            del mgr.queues["x"]
        assert mgr.waiting_for(1) == ["x"]
        assert mgr.waiters("x") == [1]
