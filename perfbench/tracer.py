"""In-memory span tracing around the program's public callables.

The benchmark never edits the program: it replaces public methods on
their classes (``PickleSerializer.decode``, ``DedupTable.fresh``, ...)
with wrappers for the duration of a traced run and puts the originals
back afterwards.  Each wrapper records one span::

    (span id, parent span id, name, start ns, end ns, id)

The parent is the innermost span open on the same thread, so a
loopback ``send`` that runs the receiver's frame handler synchronously
owns the handler's spans as children.  ``id`` is the request id of the
message the call handles (or the run index of an exploration run) when
the arguments reveal it, and is inherited from the parent otherwise.

Self time is a span's duration minus the durations of its direct
children.  Generator methods (coroutine channel operations) get spans
from first resume to completion, suspension included; they never open
a parent frame, because the tasks they belong to interleave on one
thread.

The same wrapper can carry an injected busy-wait (``delay_ns``) — the
benchmark's sensitivity check slows one layer from the outside.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

_clock = time.perf_counter_ns


def spin(ns: int) -> None:
    """Busy-wait ``ns`` nanoseconds, holding the interpreter lock like
    real Python work would."""
    end = _clock() + ns
    while _clock() < end:
        pass


class Tracer:
    """Span log plus the set of installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []
        #: ``(t ns, value)`` samples recorded at layer boundaries by
        #: ``after`` hooks (bytes encoded, retransmits, waits, ...)
        self.marks: dict[str, list[tuple[int, float]]] = defaultdict(list)
        #: tell-return stamps by message key, for dispatch-wait marks
        self.told: dict[Any, int] = {}

    # -- installation ---------------------------------------------------
    def _replace(self, owner: Any, attr: str, new: Any) -> Any:
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, new)
        return orig

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def traced(self, fn: Callable, name: str,
               rid_of: Optional[Callable[[tuple, Any], Any]] = None,
               after: Optional[Callable[[tuple, Any, int, int], None]]
               = None,
               delay_ns: int = 0) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``rid_of(args, result)`` extracts the message/run id (None to
        inherit the parent's); ``after(args, result, t0, t1)`` runs once
        the call returned, outside the span.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack:
                parent, prid = stack[-1]
            else:
                parent, prid = 0, None
            sid = next(ids)
            stack.append((sid, prid))
            result = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                if delay_ns:
                    spin(delay_ns)
                return result
            finally:
                t1 = _clock()
                stack.pop()
                rid = prid
                if rid_of is not None:
                    got = rid_of(args, result)
                    if got is not None:
                        rid = got
                spans.append((sid, parent, name, t0, t1, rid))
                if after is not None:
                    after(args, result, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner: Any, attr: str, name: str, **how: Any) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call
        (keywords as for :meth:`traced`)."""
        self._replace(owner, attr,
                      self.traced(owner.__dict__[attr], name, **how))

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Span from first resume to completion of a generator method."""
        orig = owner.__dict__[attr]
        spans = self.spans
        ids = self._ids

        def traced(*args: Any, **kwargs: Any):
            t0 = _clock()
            result = yield from orig(*args, **kwargs)
            spans.append((next(ids), 0, name, t0, _clock(), None))
            return result

        traced.__wrapped__ = orig
        self._replace(owner, attr, traced)

    def inject(self, owner: Any, attr: str, delay_ns: int) -> None:
        """Bare-mode slowdown: add ``delay_ns`` of busy work to every
        call, without recording anything."""
        orig = owner.__dict__[attr]

        def slowed(*args: Any, **kwargs: Any) -> Any:
            result = orig(*args, **kwargs)
            spin(delay_ns)
            return result

        slowed.__wrapped__ = orig
        self._replace(owner, attr, slowed)

    # -- analysis -------------------------------------------------------
    def layer_times(self, windows: Optional[Iterable[tuple[int, int]]]
                    = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self ns, over the spans that
        started inside one of ``windows`` (disjoint ``(from, to)`` ns
        pairs; all spans when None)."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _name, t0, t1, _rid in self.spans:
            if parent:
                child_ns[parent] += t1 - t0
        inside = _window_test(windows)
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, name, t0, t1, _rid in self.spans:
            if not inside(t0):
                continue
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "total_ns": 0, "self_ns": 0}
            dur = t1 - t0
            agg["calls"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += dur - child_ns.get(sid, 0)
        return out

    def clear(self) -> None:
        self.spans.clear()
        self.marks.clear()
        self.told.clear()

    def mark_sum(self, name: str,
                 windows: Optional[Iterable[tuple[int, int]]] = None
                 ) -> tuple[int, float]:
        """(count, sum) of the ``name`` marks stamped inside ``windows``
        (as for :meth:`layer_times`)."""
        inside = _window_test(windows)
        vals = [v for t, v in self.marks.get(name, ()) if inside(t)]
        return len(vals), float(sum(vals))


def _window_test(windows: Optional[Iterable[tuple[int, int]]]
                 ) -> Callable[[int], bool]:
    """``t -> bool``: does ``t`` fall in one of the disjoint windows."""
    if windows is None:
        return lambda t: True
    spans = sorted(windows)
    starts = [lo for lo, _ in spans]

    def inside(t: int) -> bool:
        i = bisect.bisect_right(starts, t) - 1
        return i >= 0 and t < spans[i][1]
    return inside
