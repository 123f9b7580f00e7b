"""A single-threaded, externally-pumped actor system for simulation.

The threaded :class:`~repro.actors.system.ActorSystem` dispatches
mailboxes on a work-stealing executor — real parallelism, real
nondeterminism.  Under deterministic simulation that nondeterminism
must be *scheduled*, not raced, so :class:`InlineActorSystem` runs the
very same cells (mailboxes, stop pill, supervision, dead letters) with
``throughput=1`` on an executor that never starts a thread: it only
holds each cell's queued processing job until the simulation driver
runs it with :meth:`~InlineActorSystem.process_one` — exactly one
message.  Which actor runs next is therefore a schedulable decision
like any frame delivery.

Actor ids come from a per-instance counter, not the threaded system's
process-global one, so actor names and ref reprs are identical on
every replay of a schedule — a requirement for stable fingerprints.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..actors.system import ActorSystem, SupervisionDirective, _StopSignal

__all__ = ["InlineActorSystem"]


class _HeldJobs:
    """Executor stand-in: records each cell's queued processing job,
    keyed by its affinity (the actor id), and never runs it."""

    def __init__(self) -> None:
        self.jobs: dict[int, Callable[[], int]] = {}

    def submit(self, task: Callable[[], int], affinity: int = 0,
               fair: bool = False) -> bool:
        self.jobs[affinity] = task
        return True


class InlineActorSystem(ActorSystem):
    """Drop-in ``ActorSystem`` for :class:`~repro.sim.world.SimWorld`.

    ``on_deliver(actor_name, message)`` — optional hook called after
    the behaviour ran on a message, whether or not it raised (the
    world's delivery ledger).
    """

    def __init__(self, name: str = "sim-system",
                 directive: SupervisionDirective =
                 SupervisionDirective.RESTART):
        super().__init__(throughput=1, directive=directive, name=name)
        self._ids = itertools.count(1)      # per-instance: replay-stable
        self.on_deliver: Optional[Callable[[str, Any], None]] = None

    def _new_executor(self, workers: int) -> _HeldJobs:
        return _HeldJobs()

    def pending(self) -> list[str]:
        """Actor names with queued mail, in spawn order — the world
        turns each into one schedulable decision."""
        jobs = self._executor.jobs
        return [name for name, cell in self._cells.items()
                if cell.mailbox and cell.affinity in jobs]

    def process_one(self, name: str) -> bool:
        """Deliver exactly one mailbox message to ``name``.

        Returns False when there was nothing to process.  Everything
        the handler does (tells, spawns, stops) happens synchronously
        on the caller — new mail just queues for later decisions.
        """
        cell = self._cells.get(name)
        if cell is None or not cell.mailbox:
            return False
        job = self._executor.jobs.pop(cell.affinity, None)
        if job is None:
            return False
        message = cell.mailbox[0][0]
        if job() and self.on_deliver is not None \
                and not isinstance(message, _StopSignal):
            self.on_deliver(name, message)
        return True

    def drain(self, timeout: float = 10.0) -> bool:
        """Pump every pending message to quiescence (no waiting)."""
        guard = 1_000_000
        while not self._quiet() and guard:
            for name in self.pending():
                self.process_one(name)
            guard -= 1
        return self._quiet()

    def _quiet(self) -> bool:
        return all(not c.mailbox for c in self._cells.values())

    def shutdown(self) -> None:
        """Stop every live actor now, dead-lettering its queued mail."""
        for cell in list(self._cells.values()):
            cell._do_stop()
