"""Delivery guarantees on top of an unreliable frame transport.

Three small, independently testable pieces give the cluster its
"at-least-once on the wire, effectively exactly-once at the actor"
contract plus credit-based backpressure:

* :class:`Outbox` — per-destination retransmission window.  Every
  reliable envelope registers on send; cumulative ACKs retire prefixes;
  :meth:`due` hands back what needs retransmitting (timeout with
  exponential backoff per attempt) and :meth:`expired` what has
  exhausted its attempts and must escalate to dead letters.
* :class:`DedupTable` — per-origin receive-side filter.  Tracks the
  contiguous delivered prefix plus a sparse set for out-of-order
  arrivals, so a retried frame whose original made it through is
  recognized and dropped (that is what turns at-least-once transport
  into exactly-once actor delivery), and doubles as the cumulative-ACK
  generator.
* :class:`CreditGate` — send-side park/resume point of the credit
  protocol.  ``acquire`` blocks the *sender* while the receiver's
  bounded remote mailbox is full; ``release`` (on CREDIT envelopes)
  wakes it; ``brk`` fails all parked senders when the peer is declared
  down so nobody waits on a corpse.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

__all__ = ["Outbox", "DedupTable", "CreditGate", "RetryPolicy"]


class RetryPolicy:
    """Timeout → exponential backoff → give-up schedule for one link."""

    __slots__ = ("base_timeout", "factor", "max_attempts")

    def __init__(self, base_timeout: float = 0.2, factor: float = 2.0,
                 max_attempts: int = 5):
        if base_timeout <= 0 or factor < 1 or max_attempts < 1:
            raise ValueError("invalid retry policy")
        self.base_timeout = base_timeout
        self.factor = factor
        self.max_attempts = max_attempts

    def deadline_after(self, attempts: int) -> float:
        """Seconds to wait after the ``attempts``-th transmission."""
        return self.base_timeout * (self.factor ** (attempts - 1))


class _Pending:
    __slots__ = ("envelope", "attempts", "next_due")

    def __init__(self, envelope: Any, attempts: int, next_due: float):
        self.envelope = envelope
        self.attempts = attempts
        self.next_due = next_due


class Outbox:
    """Unacknowledged reliable envelopes for one destination node.

    Seqs must be registered in increasing order (the node registers
    under the lock that hands them out), so ``_pending`` stays sorted:
    a cumulative ACK retires a prefix and :meth:`on_ack` stops at the
    first seq above it.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None):
        self.policy = policy if policy is not None else RetryPolicy()
        self._pending: dict[int, _Pending] = {}
        self._lock = threading.Lock()
        self.retries = 0
        # fast-path gates for the maintenance tick: scanning thousands
        # of healthy in-flight entries every few ms is pure overhead,
        # so ``due``/``expired`` bail before locking unless something
        # can actually be ready.  ``_min_due`` may go stale-low after
        # acks retire entries (costing one wasted scan), never
        # stale-high.
        self._min_due = float("inf")
        self._exhausted = 0            # entries at max attempts

    def register(self, seq: int, envelope: Any, now: float) -> None:
        next_due = now + self.policy.deadline_after(1)
        with self._lock:
            self._pending[seq] = _Pending(envelope, 1, next_due)
            if next_due < self._min_due:
                self._min_due = next_due
            if self.policy.max_attempts <= 1:
                self._exhausted += 1

    def on_ack(self, cum_seq: int) -> int:
        """Retire every pending seq <= ``cum_seq``; returns how many."""
        with self._lock:
            pending = self._pending
            if pending and next(reversed(pending)) <= cum_seq:
                retired = len(pending)  # the whole window is acked
                pending.clear()
                self._exhausted = 0
            else:
                done = []
                for s in pending:      # ascending: the acked prefix
                    if s > cum_seq:
                        break
                    done.append(s)
                limit = self.policy.max_attempts
                for s in done:
                    if pending.pop(s).attempts >= limit:
                        self._exhausted -= 1
                retired = len(done)
            if not pending:
                self._min_due = float("inf")
            return retired

    def due(self, now: float) -> list[Any]:
        """Envelopes to retransmit now (attempt counts already bumped)."""
        if now < self._min_due:        # racy read is safe: stale-low only
            return []
        out = []
        with self._lock:
            nxt = float("inf")
            for pend in self._pending.values():
                if pend.next_due <= now \
                        and pend.attempts < self.policy.max_attempts:
                    pend.attempts += 1
                    pend.next_due = now + self.policy.deadline_after(
                        pend.attempts)
                    self.retries += 1
                    out.append(pend.envelope)
                    if pend.attempts >= self.policy.max_attempts:
                        self._exhausted += 1
                if pend.next_due < nxt:
                    nxt = pend.next_due
            self._min_due = nxt
        return out

    def expired(self, now: float) -> list[Any]:
        """Envelopes past their last attempt — remove and escalate."""
        if not self._exhausted:
            return []
        out = []
        with self._lock:
            for seq in sorted(self._pending):
                pend = self._pending[seq]
                if pend.attempts >= self.policy.max_attempts \
                        and pend.next_due <= now:
                    out.append(pend.envelope)
                    del self._pending[seq]
                    self._exhausted -= 1
            if not self._pending:
                self._min_due = float("inf")
        return out

    def drain(self) -> list[Any]:
        """Remove and return everything pending (peer declared down)."""
        with self._lock:
            out = [self._pending[s].envelope for s in sorted(self._pending)]
            self._pending.clear()
            self._min_due = float("inf")
            self._exhausted = 0
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


class DedupTable:
    """Seen-sequence filter + cumulative-ACK source for one origin."""

    __slots__ = ("high", "_sparse")

    def __init__(self) -> None:
        self.high = 0                  # contiguous prefix fully delivered
        self._sparse: set[int] = set()

    def fresh(self, seq: int) -> bool:
        """True exactly once per sequence number; compacts the prefix."""
        if seq <= self.high or seq in self._sparse:
            return False
        self._sparse.add(seq)
        while self.high + 1 in self._sparse:
            self.high += 1
            self._sparse.discard(self.high)
        return True

    def skip_to(self, seq: int) -> None:
        """Advance the delivered prefix over abandoned sequence numbers.

        The origin sends SKIP after dead-lettering undeliverable
        envelopes (retry exhaustion, peer-down drain): those seqs will
        never arrive, and without this the cumulative ACK would stall
        below them forever, falsely expiring every later send.
        Idempotent; never moves the prefix backwards.
        """
        if seq <= self.high:
            return
        for s in [s for s in self._sparse if s <= seq]:
            self._sparse.discard(s)
        self.high = seq
        while self.high + 1 in self._sparse:
            self.high += 1
            self._sparse.discard(self.high)

    @property
    def cumulative(self) -> int:
        """Highest seq such that everything at or below it was seen."""
        return self.high


class CreditGate:
    """Counting semaphore with a breakable failure state.

    One gate per remote target actor on the *sending* node: ``window``
    credits to start, one consumed per TELL, replenished by CREDIT
    envelopes as the receiver admits messages into the bounded remote
    mailbox.  ``parked`` counts threads currently blocked in
    :meth:`acquire` (observability + the saturation detector).

    Fast path: the gate's ``Condition`` is built on a plain lock, and
    :meth:`acquire` and :meth:`release` take that lock directly.  A
    sender that finds a credit never touches the ``Condition``; only a
    sender that must park waits on it (still holding the same lock),
    and :meth:`release` notifies only when someone is parked.
    :attr:`available` is a lock-free read.
    """

    def __init__(self, window: int,
                 clock: Optional[Callable[[], float]] = None):
        if window < 1:
            raise ValueError("credit window must be >= 1")
        self.window = window
        self._available = window
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._broken: Optional[str] = None
        # timeout deadlines come off this clock, so a node running on a
        # simulated clock times out on simulated time
        self._clock = clock if clock is not None else time.monotonic
        self.parked = 0
        self.total_parks = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Take one credit; blocks (parks) while none are available.

        Returns False if the gate broke or the timeout expired — the
        caller dead-letters instead of sending.  A ``timeout`` of 0
        never parks: it fails immediately when no credit is available
        (the simulator's fail-fast mode).
        """
        with self._lock:
            if self._available > 0 and self._broken is None:
                self._available -= 1
                return True
            deadline = None if timeout is None \
                else self._clock() + timeout
            self.parked += 1
            self.total_parks += 1
            try:
                while self._available <= 0 and self._broken is None:
                    if deadline is None:
                        self._cond.wait()
                        continue
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
            finally:
                self.parked -= 1
            if self._broken is not None:
                return False
            self._available -= 1
            return True

    def release(self, n: int = 1) -> None:
        with self._lock:
            self._available = min(self.window, self._available + n)
            if self.parked:      # counted under this lock by parkers
                self._cond.notify_all()

    def brk(self, reason: str) -> None:
        """Fail the gate: wake every parked sender with a refusal."""
        with self._cond:
            self._broken = reason
            self._cond.notify_all()

    @property
    def broken(self) -> Optional[str]:
        return self._broken

    @property
    def available(self) -> int:
        return self._available     # one int read: atomic under the GIL
