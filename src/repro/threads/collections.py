"""Concurrent data structures — the java.util.concurrent subset the
course relies on, built on :class:`repro.threads.sync.Monitor` so their
internals demonstrate the same monitor discipline the labs teach.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Generic, Iterator, Optional, TypeVar

from .sync import Monitor

__all__ = ["BlockingQueue", "QueueClosed", "ConcurrentMap",
           "CountDownLatch", "CyclicBarrier", "BrokenBarrierError"]

T = TypeVar("T")
K = TypeVar("K")
V = TypeVar("V")


class QueueClosed(RuntimeError):
    """put on a closed queue, or take on a closed drained queue."""


class BlockingQueue(Generic[T]):
    """Bounded FIFO with blocking put/take — the bounded buffer.

    ``close()`` lets producers signal end-of-stream: blocked takers wake
    and raise :class:`QueueClosed` once drained, the usual shutdown
    idiom the course's bounded-buffer lab needs but Java hides inside
    poison pills.
    """

    def __init__(self, capacity: int = 0, name: str = "",
                 profiler: Optional[Any] = None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 = unbounded)")
        self.capacity = capacity
        self._items: deque[T] = deque()
        self._monitor = Monitor(name or "blocking-queue", profiler=profiler)
        self._closed = False

    # ------------------------------------------------------------------
    def put(self, item: T, timeout: Optional[float] = None) -> None:
        monitor = self._monitor
        with monitor:
            # the guard is tested inline so an uncontended put never
            # reaches wait_until
            if self._closed or (self.capacity and
                                len(self._items) >= self.capacity):
                if not monitor.wait_until(self._can_put, timeout):
                    raise TimeoutError("put timed out")
                if self._closed:
                    raise QueueClosed("put on closed queue")
            self._items.append(item)
            monitor.notify_all()

    def take(self, timeout: Optional[float] = None) -> T:
        monitor = self._monitor
        with monitor:
            if not self._items:
                if not monitor.wait_until(self._can_take, timeout):
                    raise TimeoutError("take timed out")
                if not self._items:
                    raise QueueClosed("take on closed drained queue")
            item = self._items.popleft()
            monitor.notify_all()
            return item

    def _can_put(self) -> bool:
        return self._closed or self.capacity == 0 \
            or len(self._items) < self.capacity

    def _can_take(self) -> bool:
        return bool(self._items) or self._closed

    def offer(self, item: T) -> bool:
        """Non-blocking put; False if full or closed."""
        with self._monitor:
            if self._closed or (self.capacity and
                                len(self._items) >= self.capacity):
                return False
            self._items.append(item)
            self._monitor.notify_all()
            return True

    def poll(self) -> Optional[T]:
        """Non-blocking take; None if empty."""
        with self._monitor:
            if not self._items:
                return None
            item = self._items.popleft()
            self._monitor.notify_all()
            return item

    def close(self) -> None:
        with self._monitor:
            self._closed = True
            self._monitor.notify_all()

    def __len__(self) -> int:
        with self._monitor:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._monitor:
            return self._closed

    def drain(self) -> list[T]:
        """Take everything currently queued without blocking."""
        with self._monitor:
            items, self._items = list(self._items), deque()
            self._monitor.notify_all()
            return items


class ConcurrentMap(Generic[K, V]):
    """Thread-safe dict with the atomic compound operations that make
    check-then-act races impossible to write by accident."""

    def __init__(self) -> None:
        self._data: dict[K, V] = {}
        self._lock = threading.RLock()

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        with self._lock:
            return self._data.get(key, default)

    def put(self, key: K, value: V) -> Optional[V]:
        with self._lock:
            old = self._data.get(key)
            self._data[key] = value
            return old

    def put_if_absent(self, key: K, value: V) -> Optional[V]:
        with self._lock:
            if key in self._data:
                return self._data[key]
            self._data[key] = value
            return None

    def remove(self, key: K) -> Optional[V]:
        with self._lock:
            return self._data.pop(key, None)

    def compute(self, key: K, fn: Callable[[K, Optional[V]], Optional[V]]
                ) -> Optional[V]:
        """Atomically rewrite one entry (None result removes it)."""
        with self._lock:
            new = fn(key, self._data.get(key))
            if new is None:
                self._data.pop(key, None)
            else:
                self._data[key] = new
            return new

    def update_atomically(self, fn: Callable[[dict[K, V]], Any]) -> Any:
        """Run ``fn`` over the raw dict under the lock (multi-key txns)."""
        with self._lock:
            return fn(self._data)

    def snapshot(self) -> dict[K, V]:
        with self._lock:
            return dict(self._data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def items(self) -> Iterator[tuple[K, V]]:
        return iter(self.snapshot().items())


class CountDownLatch:
    """One-shot gate: ``await_()`` blocks until ``count_down()`` hits 0."""

    def __init__(self, count: int):
        if count < 0:
            raise ValueError("count must be >= 0")
        self._count = count
        self._monitor = Monitor("latch")

    def count_down(self) -> None:
        with self._monitor:
            if self._count > 0:
                self._count -= 1
                if self._count == 0:
                    self._monitor.notify_all()

    def await_(self, timeout: Optional[float] = None) -> bool:
        with self._monitor:
            return self._count == 0 \
                or self._monitor.wait_until(self._released, timeout)

    def _released(self) -> bool:
        return self._count == 0

    @property
    def count(self) -> int:
        with self._monitor:
            return self._count


class BrokenBarrierError(RuntimeError):
    """A party timed out or failed; the barrier generation is broken."""


class CyclicBarrier:
    """Reusable barrier for ``parties`` threads, with generation reset."""

    def __init__(self, parties: int,
                 action: Optional[Callable[[], None]] = None):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.parties = parties
        self._action = action
        self._monitor = Monitor("barrier")
        self._waiting = 0
        self._generation = 0
        self._broken = False

    def await_(self, timeout: Optional[float] = None) -> int:
        """Returns the arrival index (parties-1 .. 0, last arrival = 0)."""
        with self._monitor:
            if self._broken:
                raise BrokenBarrierError("barrier is broken")
            generation = self._generation
            self._waiting += 1
            index = self.parties - self._waiting
            if self._waiting == self.parties:
                self._waiting = 0
                self._generation += 1
                if self._action is not None:
                    self._action()
                self._monitor.notify_all()
                return index
            ok = self._monitor.wait_until(
                lambda: self._generation != generation or self._broken,
                timeout)
            if not ok or self._broken:
                self._broken = True
                self._monitor.notify_all()
                raise BrokenBarrierError("barrier wait timed out")
            return index

    @property
    def broken(self) -> bool:
        with self._monitor:
            return self._broken
