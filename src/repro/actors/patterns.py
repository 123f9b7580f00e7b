"""Interaction patterns on top of tell: ask, forward-pipelines, routers.

These are the idioms the course's Scala labs use for request/response
over purely asynchronous sends — a reply-to reference travels in the
message, which is exactly what the paper's message-passing bridge does
with its ``succeedEnter``/``succeedExit`` acknowledgements.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..threads.pool import PoolFuture
from .actor import Actor
from .ref import ActorRef
from .system import ActorSystem

__all__ = ["ask", "Ask", "RoundRobinRouter", "aggregate"]


class Ask:
    """Request wrapper carrying an explicit reply-to reference.

    Receivers reply with ``sender.tell(...)`` (or ``context.reply``);
    :func:`ask` resolves the returned future with the first reply.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any):
        self.payload = payload

    def __repr__(self) -> str:
        return f"Ask({self.payload!r})"


class _ReplyCollector(Actor):
    """One-shot actor that completes a future with the first message."""

    def __init__(self, future: PoolFuture):
        super().__init__()
        self._future = future

    def receive(self, message: Any, sender: Optional[ActorRef]) -> None:
        self._future._complete(result=message)
        self.context.stop()


def ask(system: ActorSystem, target: ActorRef, payload: Any,
        timeout: float = 5.0) -> Any:
    """Request/response over asynchronous sends.

    Spawns a temporary reply actor, sends ``Ask(payload)`` with it as
    the sender, and blocks (the *caller*, never the target) until the
    reply lands or the timeout expires.  The collector gets a unique
    system-minted name, so repeated and concurrent asks never collide,
    and a timed-out ask stops it: a late reply becomes a dead letter.
    """
    future = PoolFuture()
    collector = system.spawn(_ReplyCollector, future)
    target.tell(Ask(payload), sender=collector)
    try:
        return future.result(timeout)
    except TimeoutError:
        system.stop(collector)
        raise


class RoundRobinRouter(Actor):
    """Fans incoming messages across a fixed set of routees in rotation.

    The sender of each routed message is preserved, so replies bypass
    the router — standard Akka router behaviour.
    """

    def __init__(self, routees: list[ActorRef]):
        super().__init__()
        if not routees:
            raise ValueError("router needs at least one routee")
        self._routees = list(routees)
        self._rr = itertools.cycle(range(len(self._routees)))

    def receive(self, message: Any, sender: Optional[ActorRef]) -> None:
        self._routees[next(self._rr)].tell(message, sender=sender)


class aggregate(Actor):
    """Collects ``expected`` messages then calls ``on_complete(list)``.

    The scatter-gather worker pattern: spawn it as the reply-to of N
    requests and read the aggregated result from the callback (or via
    ask on top).
    """

    def __init__(self, expected: int,
                 on_complete: Callable[[list[Any]], None]):
        super().__init__()
        if expected < 1:
            raise ValueError("expected must be >= 1")
        self._expected = expected
        self._on_complete = on_complete
        self._received: list[Any] = []

    def receive(self, message: Any, sender: Optional[ActorRef]) -> None:
        self._received.append(message)
        if len(self._received) >= self._expected:
            self._on_complete(list(self._received))
            self.context.stop()
