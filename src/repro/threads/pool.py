"""Fixed thread pool + futures — the course's "thread pool arithmetic
program" (the week-1 lab students run while watching CPU utilization).

A :class:`ThreadPool` owns N worker JThreads draining one BlockingQueue
of work items; :meth:`submit` returns a :class:`PoolFuture`.  Shutdown
is cooperative via queue close — no poison pills in user code.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, TypeVar

from .collections import BlockingQueue, QueueClosed
from .jthread import JThread
from .sync import Monitor

__all__ = ["PoolFuture", "ThreadPool", "parallel_map"]

T = TypeVar("T")


class PoolFuture:
    """Result holder for a submitted task (a minimal j.u.c. Future)."""

    def __init__(self) -> None:
        self._monitor = Monitor("future")
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._cancelled = False

    def _complete(self, result: Any = None,
                  error: Optional[BaseException] = None) -> None:
        with self._monitor:
            self._result = result
            self._error = error
            self._done = True
            self._monitor.notify_all()

    def cancel(self) -> bool:
        """Best-effort: succeeds only if the task has not completed."""
        with self._monitor:
            if self._done:
                return False
            self._cancelled = True
            self._done = True
            self._monitor.notify_all()
            return True

    def done(self) -> bool:
        with self._monitor:
            return self._done

    def result(self, timeout: Optional[float] = None) -> Any:
        with self._monitor:
            # ``done`` re-enters the monitor it already holds
            if not self._done \
                    and not self._monitor.wait_until(self.done, timeout):
                raise TimeoutError("future result timed out")
            if self._cancelled:
                raise RuntimeError("task was cancelled")
            if self._error is not None:
                raise self._error
            return self._result


class ThreadPool:
    """Fixed-size worker pool; usable as a context manager.

    ::

        with ThreadPool(4) as pool:
            futures = [pool.submit(fib, n) for n in range(20)]
            values = [f.result() for f in futures]
    """

    def __init__(self, workers: int = 4, queue_capacity: int = 0,
                 name: str = "pool", profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.name = name
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — submit
        #: captures the caller's request context into the work item and
        #: the worker re-installs it around the task (a pool-exec span)
        self.tracer = tracer
        self._queue: BlockingQueue = BlockingQueue(queue_capacity,
                                                   f"{name}.queue",
                                                   profiler=profiler)
        self._workers = [
            JThread(target=self._worker_loop, name=f"{name}-w{i}",
                    daemon=True, profiler=profiler)
            for i in range(workers)]
        for w in self._workers:
            w.start()
        self._shut = False
        self._submitted = 0
        self._completed = 0
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            try:
                fn, args, future, ctx = self._queue.take()
            except QueueClosed:
                return
            if future.done():          # cancelled while queued
                continue
            prof = self.profiler
            trc = self.tracer
            t0 = prof.now() if prof is not None else 0.0
            if trc is not None and ctx is not None \
                    and trc.admit(ctx.request_id):
                w0 = trc.now()
                sid = trc.next_id()
                trc.install(trc.context(ctx.request_id, sid))
                try:
                    future._complete(result=fn(*args))
                except BaseException as exc:  # noqa: BLE001
                    future._complete(error=exc)
                finally:
                    trc.record(sid, ctx.span_id, ctx.request_id,
                               "pool-exec", self.name, w0, trc.now())
                    trc.uninstall()
            else:
                try:
                    future._complete(result=fn(*args))
                except BaseException as exc:  # noqa: BLE001 - to future
                    future._complete(error=exc)
            if prof is not None:
                prof.inc("pool.tasks")
                prof.observe_us("pool.task_us", prof.now() - t0)
            with self._stats_lock:
                self._completed += 1

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., T], *args: Any) -> PoolFuture:
        if self._shut:
            raise RuntimeError(f"{self.name} is shut down")
        future = PoolFuture()
        trc = self.tracer
        ctx = trc.current() if trc is not None else None
        self._queue.put((fn, args, future, ctx))
        with self._stats_lock:
            self._submitted += 1
        return future

    def map(self, fn: Callable[[Any], T], items: Iterable[Any]) -> list[T]:
        futures = [self.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally join workers after draining."""
        self._shut = True
        self._queue.close()
        if wait:
            for w in self._workers:
                w.join()

    @property
    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            return {"submitted": self._submitted,
                    "completed": self._completed,
                    "queued": len(self._queue),
                    "workers": len(self._workers)}

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown(wait=True)


def parallel_map(fn: Callable[[Any], T], items: Iterable[Any],
                 workers: int = 4) -> list[T]:
    """One-shot pooled map — the arithmetic-lab entry point."""
    with ThreadPool(workers) as pool:
        return pool.map(fn, items)
