"""The threaded Monitor's condition queue: ownership errors, timed waits
that race a notify, exact notify(n) wake counts, waiter cleanup, a seeded
BlockingQueue stress run, pinned counters, and the queue's inline-guard
fast path."""

import random
import sys
import threading
import time

import pytest

from repro.obs import Profiler
from repro.problems.bounded_buffer import audit_consumption
from repro.threads import (BlockingQueue, CountDownLatch, Monitor,
                           MonitorStateError, QueueClosed)
from repro.threads.pool import PoolFuture


def _poll(cond, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _park_waiters(m: Monitor, count: int, body) -> list[threading.Thread]:
    """Start ``count`` threads that each enter ``m`` and run ``body``;
    return once every one of them has released the monitor inside a
    wait (each bumps ``parked`` under the monitor just before waiting,
    so seeing the full count while holding ``m`` proves they all
    parked)."""
    parked = [0]

    def run() -> None:
        with m:
            parked[0] += 1
            body()

    threads = [threading.Thread(target=run, daemon=True)
               for _ in range(count)]
    for t in threads:
        t.start()

    def all_parked() -> bool:
        with m:
            return parked[0] == count
    assert _poll(all_parked)
    return threads


class TestStrayRelease:
    def test_stray_release_leaves_the_owner_intact(self):
        m = Monitor("owned")
        entered, done = threading.Event(), threading.Event()
        result = {}

        def owner():
            with m:
                entered.set()
                assert done.wait(timeout=5)
                result["held"] = m.held_by_me
                m.notify_all()          # raised on a corrupted owner
                result["notified"] = True

        t = threading.Thread(target=owner)
        t.start()
        assert entered.wait(timeout=5)
        try:
            with pytest.raises(MonitorStateError):
                m.release()
            with pytest.raises(RuntimeError):    # existing callers' spelling
                m.__exit__(None, None, None)
        finally:
            done.set()
        t.join(timeout=5)
        assert not t.is_alive()
        assert result == {"held": True, "notified": True}
        assert m.acquire_count == 1

    def test_stray_release_on_a_free_monitor_changes_nothing(self):
        m = Monitor("free")
        with pytest.raises(MonitorStateError):
            m.release()
        assert not m.held_by_me
        with m:
            assert m.held_by_me
        assert m.acquire_count == 1
        assert not m.held_by_me


class TestTimedWaitRacingNotify:
    def test_notify_delivered_after_the_timeout_is_reported(self):
        m = Monitor()
        entered = threading.Event()
        result = {}

        def waiter():
            with m:
                entered.set()
                result["signalled"] = m.wait(timeout=0.05)

        t = threading.Thread(target=waiter)
        t.start()
        assert entered.wait(timeout=5)
        with m:                         # enterable only once it parked
            time.sleep(0.3)             # its timeout expires meanwhile
            m.notify()
        t.join(timeout=5)
        assert not t.is_alive()
        assert result["signalled"] is True
        assert not m._waiters

    def test_timed_out_waits_leave_no_waiter_queued(self):
        m = Monitor()
        go = [False]

        def untimed():
            m.wait_until(lambda: go[0])

        others = _park_waiters(m, 1, untimed)
        with m:
            assert m.wait(timeout=0.01) is False
            assert len(m._waiters) == 1     # only the other thread's
            assert m.wait(timeout=0) is False
            assert m.wait_until(lambda: False, timeout=0.02) is False
            assert len(m._waiters) == 1
            go[0] = True
            m.notify_all()
            assert not m._waiters
        for t in others:
            t.join(timeout=5)
            assert not t.is_alive()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_notify_n_wakes_exactly_min_n_waiters(n):
    m = Monitor()
    woken = [0]

    def body():
        m.wait()
        woken[0] += 1

    threads = _park_waiters(m, 3, body)
    expected = min(n, 3)
    with m:
        m.notify(n)
        assert len(m._waiters) == 3 - expected

    def settled() -> bool:
        with m:
            return woken[0] == expected
    assert _poll(settled)
    time.sleep(0.05)                    # a surplus wake would show now
    with m:
        assert woken[0] == expected
        m.notify_all()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert woken[0] == 3


def test_seeded_queue_stress_with_timeouts_and_close():
    producers, consumers, items_each = 3, 3, 300
    q: BlockingQueue = BlockingQueue(capacity=4, name="stress")
    consumed: list = []
    record = threading.Lock()
    timeouts = [None, 0, 0.0005, 0.002, 0.01]

    def producer(pid):
        rng = random.Random(1000 + pid)
        for k in range(items_each):
            while True:
                try:
                    q.put((pid, k), timeout=rng.choice(timeouts))
                    break
                except TimeoutError:
                    pass

    def consumer(cid):
        rng = random.Random(2000 + cid)
        while True:
            try:
                item = q.take(timeout=rng.choice(timeouts))
            except TimeoutError:
                continue
            except QueueClosed:
                return
            with record:
                consumed.append(item)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ps = [threading.Thread(target=producer, args=(i,), daemon=True)
              for i in range(producers)]
        cs = [threading.Thread(target=consumer, args=(i,), daemon=True)
              for i in range(consumers)]
        for t in ps + cs:
            t.start()
        for t in ps:
            t.join(timeout=60)
        q.close()
        for t in cs:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in ps + cs)
    assert audit_consumption(consumed, producers, items_each) is None
    assert not q._monitor._waiters


def test_scripted_sequence_counters():
    """Counter values recorded on the ``threading.Condition`` monitor
    this condition queue replaced; both must agree."""
    prof = Profiler()
    m = Monitor("script", profiler=prof)
    with m:
        with m:
            m.notify()
        m.notify_all()
        assert m.wait(timeout=0) is False
        assert m.wait_until(lambda: True) is True
        m.notify(2)
    m.acquire()
    m.release()

    # one cross-thread handoff, entered only once the waiter has parked
    state = {"go": False}
    entered = threading.Event()

    def waiter():
        with m:
            entered.set()
            m.wait_until(lambda: state["go"])

    t = threading.Thread(target=waiter)
    t.start()
    assert entered.wait(timeout=5)
    assert _poll(lambda: m._lock.acquire(False))   # free once parked
    m._lock.release()
    with m:
        state["go"] = True
        m.notify_all()
    t.join(timeout=5)
    assert not t.is_alive()

    assert (m.acquire_count, m.wait_count, m.notify_count) == (4, 2, 4)
    assert {k: prof.get(k) for k in (
        "lock.acquires", "lock.contended", "monitor.waits",
        "monitor.wakeups", "monitor.notifies")} == {
        "lock.acquires": 5, "lock.contended": 0, "monitor.waits": 2,
        "monitor.wakeups": 2, "monitor.notifies": 4}

    qprof = Profiler()
    q: BlockingQueue = BlockingQueue(capacity=2, name="q", profiler=qprof)
    q.put(1)
    q.put(2)
    assert q.offer(3) is False
    assert q.take() == 1
    assert q.poll() == 2
    assert q.poll() is None
    assert len(q) == 0 and not q.closed
    q.put(4)
    assert q.drain() == [4]
    q.close()
    with pytest.raises(QueueClosed):
        q.take()
    with pytest.raises(QueueClosed):
        q.put(5)
    qm = q._monitor
    assert (qm.acquire_count, qm.wait_count, qm.notify_count) == (13, 0, 7)
    assert {k: qprof.get(k) for k in (
        "lock.acquires", "lock.contended", "monitor.waits",
        "monitor.wakeups", "monitor.notifies")} == {
        "lock.acquires": 13, "lock.contended": 0, "monitor.waits": 0,
        "monitor.wakeups": 0, "monitor.notifies": 7}


def test_uncontended_operations_never_wait(monkeypatch):
    calls = {"wait": 0, "wait_until": 0}

    def counting(name):
        inner = getattr(Monitor, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return inner(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Monitor, "wait", counting("wait"))
    monkeypatch.setattr(Monitor, "wait_until", counting("wait_until"))
    for q in (BlockingQueue(capacity=4), BlockingQueue()):
        for i in range(3):
            q.put(i)
            assert q.take() == i
    future = PoolFuture()
    future._complete(result=7)
    assert future.result() == 7
    latch = CountDownLatch(1)
    latch.count_down()
    assert latch.await_() is True
    assert calls == {"wait": 0, "wait_until": 0}
