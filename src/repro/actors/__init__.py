"""repro.actors — the Scala Actors model, in Python.

:class:`Actor` subclasses implement Hewitt's axioms (send / create /
designate-next-behaviour) and run on either runtime:

* :class:`ActorSystem` — one actor cell (mailbox, stop pill,
  supervision, dead letters) with two drivers: the threaded one on a
  shared work-stealing pool, for throughput and the performance
  benchmarks, and :class:`~repro.sim.inline.InlineActorSystem`, which
  runs the same cell one message per simulation decision;
* :class:`SimActorSystem` — a separate kernel model: actors are
  deterministic kernel tasks with pluggable delivery policies, for
  exhaustive exploration of message arrival orders with
  :mod:`repro.verify`.

Plus the interaction patterns the labs use: :func:`ask` request/response,
routers, scatter-gather aggregation.
"""

from .actor import Actor, ActorContext, Behaviour
from .executor import WorkStealingExecutor
from .patterns import Ask, RoundRobinRouter, aggregate, ask
from .ref import ActorRef
from .sim import SimActorSystem
from .system import ActorSystem, DeadLetter, SupervisionDirective

__all__ = [
    "Actor", "ActorContext", "Behaviour", "ActorRef",
    "ActorSystem", "SupervisionDirective", "DeadLetter",
    "WorkStealingExecutor",
    "SimActorSystem",
    "ask", "Ask", "RoundRobinRouter", "aggregate",
]
