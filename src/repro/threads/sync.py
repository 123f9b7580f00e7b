"""Java-style monitors over real Python threads.

The course teaches Java's intrinsic-lock idiom — ``synchronized`` blocks
plus ``wait()``/``notify()``/``notifyAll()``.  :class:`Monitor` packages
that idiom over :mod:`threading`: a reentrant lock fused with one
condition queue, entered with ``with monitor:`` and signalled with the
Java method names.

The monitor is one C ``_thread.RLock`` plus a FIFO deque of private
raw locks, one per parked ``wait()``: the waiter enqueues its lock
already acquired, fully releases the RLock (``_release_save`` /
``_acquire_restore``) and blocks re-acquiring its own lock; ``notify``
pops and releases waiters, and with nobody waiting only counts.  A
``notify`` that dequeues a waiter whose timeout has just expired counts
as delivered (that ``wait()`` returns True), so no notification is
swallowed.  ``held_by_me`` reads the RLock's own owner, so a stray
``release()`` raises :class:`MonitorStateError` and changes nothing.

``@synchronized`` marks methods the way Java's keyword does: the paper's
misconception S7 ("conflate order of method invocation/return with
get/release lock") is precisely about the *difference* between calling a
synchronized method and holding its monitor — the decorator acquires the
monitor only once the call frame is entered, and the test suite pins
that distinction.
"""

from __future__ import annotations

import _thread
import functools
import threading
import time
from collections import deque
from typing import Any, Callable, Optional, TypeVar

__all__ = ["Monitor", "synchronized", "MonitorStateError"]

F = TypeVar("F", bound=Callable[..., Any])


class MonitorStateError(RuntimeError):
    """wait/notify/release called without holding the monitor (Java's
    IllegalMonitorStateException)."""


class Monitor:
    """Reentrant lock + condition queue with Java naming.

    ::

        m = Monitor()
        with m:
            while not ready:
                m.wait()
            ...
            m.notify_all()
    """

    def __init__(self, name: str = "", profiler: Optional[Any] = None):
        self.name = name or f"monitor@{id(self):x}"
        self._lock = _thread.RLock()
        #: one private lock per parked ``wait()``, held by its waiter
        #: until a notifier pops and releases it; only touched while
        #: the monitor is held
        self._waiters: deque = deque()
        #: lifetime entries / WAIT parks / NOTIFY signals — observability
        #: counters matching the kernel SimMonitor's; only mutated while
        #: the monitor is held, so no extra synchronization is needed
        self.acquire_count = 0
        self.wait_count = 0
        self.notify_count = 0
        #: optional :class:`repro.obs.Profiler` — lock wait times and
        #: contention counts; None keeps every path allocation-free
        self.profiler = profiler

    # -- lock protocol -----------------------------------------------------
    def __enter__(self) -> "Monitor":
        lock = self._lock
        prof = self.profiler
        if lock._is_owned():
            # reentrant entry: never blocks, and acquire_count counts
            # outermost entries only
            lock.acquire()
            if prof is not None:
                prof.inc("lock.acquires")
            return self
        if prof is None:
            lock.acquire()
        elif lock.acquire(False):
            prof.inc("lock.acquires")
        else:
            # contended: somebody else holds the lock — time the wait
            t0 = prof.now()
            lock.acquire()
            prof.inc("lock.acquires")
            prof.inc("lock.contended")
            prof.observe_us("lock.wait_us", prof.now() - t0)
        self.acquire_count += 1
        return self

    def __exit__(self, exc_type: Any = None, exc: Any = None,
                 tb: Any = None) -> None:
        try:
            self._lock.release()
        except RuntimeError:
            # not the owner: the lock refused before changing any state
            raise MonitorStateError(
                f"release() on {self.name} without holding the monitor"
            ) from None

    def acquire(self) -> None:
        self.__enter__()

    def release(self) -> None:
        self.__exit__()

    @property
    def held_by_me(self) -> bool:
        return self._lock._is_owned()

    def _not_held(self, op: str) -> MonitorStateError:
        return MonitorStateError(
            f"{op} on {self.name} without holding the monitor")

    # -- condition protocol ---------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Release the monitor and park; True unless the timeout expired
        with no ``notify`` delivered to this waiter.

        Mesa semantics: callers must re-check their predicate in a loop.
        """
        lock = self._lock
        if not lock._is_owned():
            raise self._not_held("wait()")
        self.wait_count += 1
        prof = self.profiler
        t0 = 0.0
        if prof is not None:
            prof.inc("monitor.waits")
            t0 = prof.now()
        waiter = _thread.allocate_lock()
        waiter.acquire()
        self._waiters.append(waiter)
        # fully release the reentrant lock (every level) and restore the
        # same depth afterwards
        saved = lock._release_save()
        signalled = False
        try:
            if timeout is None:
                signalled = waiter.acquire()
            elif timeout > 0:
                signalled = waiter.acquire(True, timeout)
            else:
                signalled = waiter.acquire(False)
        finally:
            lock._acquire_restore(saved)
            if not signalled:
                try:
                    self._waiters.remove(waiter)
                except ValueError:
                    # a notifier popped this waiter after the timeout
                    # but before the monitor was ours again: the notify
                    # was delivered here, so report it
                    signalled = True
        if prof is not None:
            prof.inc("monitor.wakeups")
            prof.observe_us("monitor.wait_us", prof.now() - t0)
        return signalled

    def wait_until(self, predicate: Callable[[], bool],
                   timeout: Optional[float] = None) -> bool:
        """Guarded wait: ``WHILE NOT predicate() WAIT()`` from Figure 4."""
        if not self._lock._is_owned():
            raise self._not_held("wait_until()")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not predicate():
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            self.wait(remaining)
        return True

    def notify(self, n: int = 1) -> None:
        if not self._lock._is_owned():
            raise self._not_held("notify()")
        self.notify_count += 1
        if self.profiler is not None:
            self.profiler.inc("monitor.notifies")
        waiters = self._waiters
        while waiters and n > 0:
            waiters.popleft().release()
            n -= 1

    def notify_all(self) -> None:
        """The paper's NOTIFY(): every waiter finishes its WAIT()."""
        if not self._lock._is_owned():
            raise self._not_held("notifyAll()")
        self.notify_count += 1
        if self.profiler is not None:
            self.profiler.inc("monitor.notifies")
        waiters = self._waiters
        if waiters:
            for waiter in waiters:
                waiter.release()
            waiters.clear()

    def __repr__(self) -> str:
        return f"<Monitor {self.name}>"


def synchronized(method: F) -> F:
    """Java's ``synchronized`` method modifier.

    Serializes callers on a per-instance monitor stored as
    ``obj._monitor`` (created on first use; share it across methods of
    the same object, exactly like Java's intrinsic lock).  Inside the
    method, ``self._monitor.wait()`` / ``.notify_all()`` provide the
    condition queue.
    """

    @functools.wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        monitor = _intrinsic_monitor(self)
        with monitor:
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


_intrinsic_guard = threading.Lock()


def _intrinsic_monitor(obj: Any) -> Monitor:
    monitor = getattr(obj, "_monitor", None)
    if monitor is None:
        with _intrinsic_guard:
            monitor = getattr(obj, "_monitor", None)
            if monitor is None:
                monitor = Monitor(f"{type(obj).__name__}@{id(obj):x}")
                obj._monitor = monitor
    return monitor
