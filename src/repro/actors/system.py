"""Threaded actor runtime — mailboxes + a work-stealing dispatcher.

Execution model (the standard event-driven actor dispatcher, as in
Akka/Scala rather than thread-per-actor):

* every actor owns an unbounded mailbox and a *scheduled* flag;
* ``tell`` enqueues and, if the actor is idle, submits a processing job
  to a shared :class:`~repro.actors.executor.WorkStealingExecutor`;
* a processing job swaps out a run of up to ``throughput`` messages in
  one go and invokes the actor's current behaviour one message at a
  time (the actor serialization guarantee), then yields the worker and
  reschedules itself — behind the worker's other work — if messages
  remain.

Hot-path discipline: with no profiler attached, ``enqueue`` is a single
``deque.append`` plus one non-blocking try-lock (the scheduled flag is
*represented by* a held :class:`threading.Lock`, so test-and-set is one
atomic C call), and a processing job drains its batch with plain
``popleft`` — single-element deque ops are atomic under the GIL and the
scheduled flag guarantees a single drainer.  Only a profiler forces the
cell's lock (its enqueue-timestamp deque must stay aligned with the
mailbox); the causal tracer stays lock-free by riding each message's
request context *inside* the mailbox entry — traced messages are
4-tuples, untraced ones keep the 2-tuple shape and pay one TLS read.
Each traced handler run spends one hop of the request's per-process
budget (``CausalTracer.hop_budget``), so a runaway request stops
paying tracing costs once its first few hundred hops are recorded.

Failures route to the actor's supervision directive: ``resume`` (drop
the message), ``restart`` (clear behaviour stack via ``pre_restart``),
or ``stop``.  Messages to stopped actors go to ``dead_letters``; a stop
in the middle of a drained batch dead-letters the batch's remainder,
exactly as if the messages were still queued.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from enum import Enum
from typing import Any, Optional

from .actor import Actor, ActorContext
from .executor import WorkStealingExecutor
from .ref import ActorRef

__all__ = ["SupervisionDirective", "ActorSystem", "DeadLetter"]


class SupervisionDirective(Enum):
    RESUME = "resume"
    RESTART = "restart"
    STOP = "stop"


class DeadLetter:
    """Record of a message that could not be delivered.

    ``ctx`` preserves the causal-tracing context the message carried at
    the drop point — either a live ``RequestContext`` or the cluster
    wire triple ``(request_id, span_id, t_send)`` — so ``repro
    critical`` and postmortem bundles can attribute the drop to the
    request that lost it.
    """

    __slots__ = ("target", "message", "sender", "ctx")

    def __init__(self, target: str, message: Any, sender: Optional[ActorRef],
                 ctx: Any = None):
        self.target = target
        self.message = message
        self.sender = sender
        self.ctx = ctx

    @property
    def request_id(self) -> Optional[str]:
        """Request id of the dropped message's causal context, if any."""
        ctx = self.ctx
        if ctx is None:
            return None
        rid = getattr(ctx, "request_id", None)
        if rid is not None:
            return rid
        try:
            return ctx[0]
        except (TypeError, IndexError, KeyError):
            return None

    def __repr__(self) -> str:
        rid = self.request_id
        tail = f" [req {rid}]" if rid is not None else ""
        return f"<DeadLetter to {self.target}: {self.message!r}{tail}>"


class _StopSignal:
    """Internal poison pill appended by ``system.stop``."""


class _Cell:
    """Runtime state of one actor: mailbox, flags, instance."""

    __slots__ = ("system", "actor", "ref", "mailbox", "lock", "_sched",
                 "_stopped", "started", "directive", "enq_times",
                 "_batch", "_run", "affinity")

    def __init__(self, system: "ActorSystem", actor: Actor, ref_name: str,
                 actor_id: int,
                 directive: Optional["SupervisionDirective"] = None):
        self.system = system
        self.actor = actor
        self.ref = ActorRef(actor_id, ref_name, self)
        self.mailbox: deque[tuple[Any, Optional[ActorRef]]] = deque()
        #: profiler-mode lock: keeps ``enq_times`` aligned with the
        #: mailbox, and serializes the stop-drain against late enqueues
        self.lock = threading.Lock()
        #: the scheduled flag *is* this lock's held/free state —
        #: ``acquire(False)`` is an atomic test-and-set, so the
        #: profiler-off enqueue path claims scheduling rights without
        #: ever blocking or taking ``self.lock``
        self._sched = threading.Lock()
        self._stopped = False
        self.started = False
        #: per-actor supervision override (None = system default)
        self.directive = directive
        #: enqueue timestamps, parallel to ``mailbox`` (profiling only —
        #: both deques are pushed/popped together under ``lock``, so the
        #: head timestamp always belongs to the head message)
        self.enq_times: deque[float] = deque()
        #: reusable drain buffer — one live batch per cell (guaranteed
        #: by the scheduled flag), so no per-batch list allocation
        self._batch: list[tuple[Any, Optional[ActorRef]]] = []
        #: the bound method the executor runs, created once per actor
        self._run = self._process
        #: stable home-worker key — a hot actor keeps hitting the same
        #: worker's deque (and that worker's caches) unless stolen
        self.affinity = actor_id

    # -- ActorCell protocol ---------------------------------------------------
    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def scheduled(self) -> bool:
        """True while a processing job is queued or running for us."""
        return self._sched.locked()

    def depth(self) -> int:
        """Messages currently pending in the mailbox."""
        return len(self.mailbox)

    def enqueue(self, message: Any, sender: Optional[ActorRef]) -> None:
        system = self.system
        prof = system.profiler
        trc = system.tracer
        if trc is None:
            entry: tuple = (message, sender)
        else:
            # the sender's causal position rides *inside* the mailbox
            # entry (a 4-tuple), so tracing needs no parallel deque and
            # no lock — an untraced message on a traced system pays one
            # TLS read and keeps the 2-tuple shape
            ctx = getattr(trc.tls, "ctx", None)
            entry = (message, sender) if ctx is None \
                else (message, sender, ctx, trc.clock())
        if prof is None:
            # lock-free fast path: one atomic append, one try-lock
            if self._stopped:
                system._dead_letter(self.ref.name, message, sender,
                                    entry[2] if len(entry) > 2 else None)
                return
            self.mailbox.append(entry)
            if self._stopped:
                # raced _do_stop: its drain may have run before our
                # append landed — flush so nothing rots in a dead mailbox
                self._drain_to_dead_letters()
                return
        else:
            with self.lock:
                if self._stopped:
                    system._dead_letter(self.ref.name, message, sender,
                                        entry[2] if len(entry) > 2
                                        else None)
                    return
                self.mailbox.append(entry)
                self.enq_times.append(prof.now())
            prof.inc("mailbox.enqueued")
            depth = len(self.mailbox)
            prof.observe("mailbox.depth", depth)
            prof.gauge_max("mailbox.depth_max", depth)
        if self._sched.acquire(False):
            if not system._executor.submit(self._run, affinity=self.affinity):
                self._reject()

    # -- message processing ----------------------------------------------------
    def _process(self) -> int:
        """One processing job; returns how many mailbox entries it took
        (0 when a STOP directive in ``pre_start`` stopped the actor
        before any of its mail ran)."""
        system = self.system
        actor = self.actor
        if not self.started:
            self.started = True
            try:
                actor.pre_start()
            except BaseException as exc:  # noqa: BLE001
                system._on_failure(self, exc, "<pre_start>")
            if self._stopped:          # STOP directive fired in pre_start
                self._sched.release()
                return 0
        prof = system.profiler
        trc = system.tracer
        mailbox = self.mailbox
        batch = self._batch
        drain_t = 0.0
        if trc is not None:
            # the dequeue timestamp is taken once per batch by design
            drain_t = trc.clock()
        if prof is None:
            # single drainer (scheduled flag) + atomic popleft: no lock
            n = len(mailbox)
            if n > system.throughput:
                n = system.throughput
            for _ in range(n):
                batch.append(mailbox.popleft())
        else:
            # one lock acquisition amortized over the whole batch
            now = prof.now()
            with self.lock:
                n = min(len(mailbox), system.throughput)
                times = self.enq_times
                for _ in range(n):
                    batch.append(mailbox.popleft())
                    if times:
                        prof.observe_us("mailbox.latency_us",
                                        now - times.popleft())
            if n:
                prof.observe("mailbox.batch_size", n)

        lane = self.ref.name
        if trc is not None:
            # hot-loop locals: span recording is inlined below (id
            # counter, deque append, raw TLS) — per traced message the
            # whole chain costs three tuple appends, one clock read and
            # one budget-table update
            _ids = trc._ids
            _app = trc._spans.append
            _now = trc.clock
            _tls = trc.tls
            _Ctx = trc.context
            _left = trc._hops_left
            _hb = trc.hop_budget
            t_prev = drain_t
        for i in range(n):
            entry = batch[i]
            message, sender = entry[0], entry[1]
            if isinstance(message, _StopSignal):
                self._do_stop()
            else:
                context = actor.context
                context.sender = sender
                traced = False
                if len(entry) == 4 and trc is not None:
                    # one handler run spends one hop of the request's
                    # per-process budget (inlined CausalTracer.admit);
                    # once it's gone the message runs untraced and the
                    # chain self-terminates — bounded tracing cost per
                    # request, like OpenTelemetry span limits
                    rid = entry[2].request_id
                    left = _left.get(rid)
                    if left is None:
                        if len(_left) >= 65536:
                            _left.clear()
                        left = _hb
                    if left > 0:
                        _left[rid] = left - 1
                        traced = True
                if traced:
                    # traced message: chain mailbox-wait → executor-queue
                    # → handler off the sender's span, and run the
                    # behaviour under the handler's context so nested
                    # tells keep the chain growing.  The handler start
                    # stamp reuses the previous handler's end (they are
                    # back-to-back in this loop), so the chain needs one
                    # clock read per message
                    ctx, enq_t = entry[2], entry[3]
                    h0 = t_prev
                    d = drain_t if drain_t >= enq_t else enq_t
                    if d > h0:
                        d = h0
                    w_id = next(_ids)
                    _app((w_id, ctx.span_id, rid, "mailbox-wait", lane,
                          enq_t if enq_t <= d else d, d))
                    q_id = next(_ids)
                    _app((q_id, w_id, rid, "executor-queue", lane, d, h0))
                    h_id = next(_ids)
                    _tls.ctx = _Ctx(rid, h_id)
                    try:
                        actor.current_behaviour()(message, sender)
                    except BaseException as exc:  # noqa: BLE001
                        system._on_failure(self, exc, message)
                    finally:
                        t_prev = _now()
                        _app((h_id, q_id, rid, "handler", lane, h0,
                              t_prev))
                        _tls.ctx = None
                        context.sender = None
                else:
                    try:
                        actor.current_behaviour()(message, sender)
                    except BaseException as exc:  # noqa: BLE001
                        system._on_failure(self, exc, message)
                    finally:
                        context.sender = None
            if prof is not None:
                # decoupled from the latency sample on purpose: messages
                # enqueued before a profiler was attached have no
                # timestamp but still count as processed (stop signals
                # included — they were dequeued and handled)
                prof.inc("mailbox.processed")
            if self._stopped:
                # stop (poison pill or STOP directive) mid-batch: the
                # batch remainder is mail behind the stop — dead-letter
                # it exactly like the messages still in the mailbox
                for j in range(i + 1, n):
                    late, late_sender = batch[j][0], batch[j][1]
                    if not isinstance(late, _StopSignal):
                        system._dead_letter(
                            self.ref.name, late, late_sender,
                            batch[j][2] if len(batch[j]) > 2 else None)
                del batch[:]
                self._sched.release()
                return n
        del batch[:]

        if mailbox:
            # budget exhausted with mail left: requeue *fairly*, behind
            # whatever else is waiting on our worker
            if not system._executor.submit(self._run, affinity=self.affinity,
                                           fair=True):
                self._reject()
            return n
        self._sched.release()
        # a message may have slipped in between the emptiness check and
        # the release — whoever wins the try-lock reschedules
        if mailbox and self._sched.acquire(False):
            if not system._executor.submit(self._run, affinity=self.affinity):
                self._reject()
        return n

    def _do_stop(self) -> None:
        with self.lock:
            self._stopped = True
        self._drain_to_dead_letters()
        try:
            self.actor.post_stop()
        except BaseException:  # noqa: BLE001 - post_stop must not kill workers
            pass
        self.system._forget(self)

    def _drain_to_dead_letters(self) -> None:
        """Atomically swap out everything queued and dead-letter it."""
        with self.lock:
            leftovers = list(self.mailbox)
            self.mailbox.clear()
            self.enq_times.clear()
        for entry in leftovers:
            message, sender = entry[0], entry[1]
            if not isinstance(message, _StopSignal):
                self.system._dead_letter(self.ref.name, message, sender,
                                         entry[2] if len(entry) > 2
                                         else None)

    def _reject(self) -> None:
        """The executor refused a submit (it is shut down): we hold the
        scheduled flag but no worker will ever run us.  Dead-letter the
        pending mail and hand the flag back without stranding a message
        that arrives between our drain and our release."""
        while True:
            self._drain_to_dead_letters()
            self._sched.release()
            if not self.mailbox or not self._sched.acquire(False):
                return


class ActorSystem:
    """Container + dispatcher for a set of actors.

    ::

        with ActorSystem(workers=4) as system:
            echo = system.spawn(Echo, name="echo")
            echo.tell("hello")
            system.drain()          # wait until all mailboxes are empty
    """

    _ids = itertools.count(1)

    def __init__(self, workers: int = 4, throughput: int = 16,
                 directive: SupervisionDirective = SupervisionDirective.RESTART,
                 name: str = "actor-system",
                 profiler: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        self.name = name
        self.throughput = throughput
        self.directive = directive
        #: optional :class:`repro.obs.Profiler` — mailbox latency/depth,
        #: message throughput, executor steals/parks; None keeps the
        #: dispatch path untouched
        self.profiler = profiler
        #: optional :class:`repro.obs.causal.CausalTracer` — request
        #: contexts ride the mailbox and every traced handler records a
        #: mailbox-wait/executor-queue/handler span chain; None keeps
        #: the lock-free enqueue path
        self.tracer = tracer
        self._executor = self._new_executor(workers)
        #: live cells by actor name, in spawn order
        self._cells: dict[str, _Cell] = {}
        self._cells_lock = threading.Lock()
        self.dead_letters: list[DeadLetter] = []
        self._dl_lock = threading.Lock()
        self._failures: list[tuple[str, BaseException]] = []
        self._failures_lock = threading.Lock()
        #: optional callback (name, error, applied_directive) invoked after
        #: a failure is handled — the cluster layer hangs watch signals here
        self.failure_listener: Optional[Any] = None

    def _new_executor(self, workers: int) -> Any:
        """The dispatcher cells submit their processing jobs to; the
        simulation's inline driver overrides it with a job holder."""
        return WorkStealingExecutor(workers, name=f"{self.name}.dispatch",
                                    profiler=self.profiler)

    # ------------------------------------------------------------------
    def spawn(self, actor_class: type, *args: Any, name: str = "",
              directive: Optional[SupervisionDirective] = None,
              **kwargs: Any) -> ActorRef:
        """Instantiate and register an actor; returns its ref.

        ``directive`` overrides the system-wide supervision default for
        this actor only — one crashing actor can be STOPped while the
        rest RESTART.  Names are unique among live actors: spawning a
        second live actor under a taken name raises ``ValueError``.
        """
        if not issubclass(actor_class, Actor):
            raise TypeError(f"{actor_class.__name__} is not an Actor subclass")
        actor = actor_class(*args, **kwargs)
        actor_id = next(self._ids)
        cell = _Cell(self, actor, name or
                     f"{actor_class.__name__.lower()}-{actor_id}", actor_id,
                     directive=directive)
        actor.context = ActorContext(self, cell.ref)
        with self._cells_lock:
            old = self._cells.get(cell.ref.name)
            if old is not None and not old.stopped:
                raise ValueError(f"actor {cell.ref.name!r} already exists")
            self._cells[cell.ref.name] = cell
        # schedule once immediately so pre_start runs even for actors
        # that initiate conversations instead of waiting for mail
        cell._sched.acquire()
        if not self._executor.submit(cell._run, affinity=cell.affinity):
            cell._reject()
        return cell.ref

    def stop(self, ref: ActorRef) -> None:
        """Graceful stop: processes messages already enqueued first."""
        ref.tell(_StopSignal())

    def tell(self, ref: ActorRef, message: Any) -> None:
        ref.tell(message, sender=None)

    # ------------------------------------------------------------------
    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every mailbox is empty and no actor is running.

        Polls rather than waits on a condition: quiescence is a global
        property across all cells and the executor, and per-message
        notifications would cost more than the poll.  The poll spins
        (GIL yields) briefly before backing off to millisecond sleeps —
        a short workload quiesces in microseconds, and a 1 ms first
        sleep would dominate its entire wall time.
        """
        import time
        deadline = time.monotonic() + timeout
        spins = 0
        while not self._quiet():
            if time.monotonic() >= deadline:
                return False
            spins += 1
            time.sleep(0 if spins < 200 else 0.001)
        return True

    def _quiet(self) -> bool:
        with self._cells_lock:
            cells = list(self._cells.values())
        busy = any(c._sched.locked() or c.mailbox for c in cells)
        return not busy and self._executor.idle()

    def shutdown(self) -> None:
        with self._cells_lock:
            refs = [c.ref for c in self._cells.values()]
        for ref in refs:
            self.stop(ref)
        self.drain()
        self._executor.shutdown(wait=True)

    def executor_stats(self) -> dict[str, int]:
        """Dispatcher counters: queued, executed, steals, parks,
        local_hits, workers."""
        return self._executor.stats

    # ------------------------------------------------------------------
    # runtime callbacks
    # ------------------------------------------------------------------
    def _dead_letter(self, target: str, message: Any,
                     sender: Optional[ActorRef], ctx: Any = None) -> None:
        with self._dl_lock:
            self.dead_letters.append(DeadLetter(target, message, sender,
                                                ctx))

    def _forget(self, cell: _Cell) -> None:
        with self._cells_lock:
            # a stopped name may already be re-spawned: drop only our cell
            if self._cells.get(cell.ref.name) is cell:
                del self._cells[cell.ref.name]

    def _on_failure(self, cell: _Cell, error: BaseException,
                    message: Any) -> None:
        # runs on dispatch workers: the failure log needs the same
        # lock discipline as dead_letters
        with self._failures_lock:
            self._failures.append((cell.ref.name, error))
        directive = cell.directive if cell.directive is not None \
            else self.directive
        if directive is SupervisionDirective.RESTART:
            try:
                cell.actor.pre_restart(error, message)
            except BaseException:  # noqa: BLE001
                pass
        elif directive is SupervisionDirective.STOP:
            cell._do_stop()
        listener = self.failure_listener
        if listener is not None:
            try:
                listener(cell.ref.name, error, directive)
            except BaseException:  # noqa: BLE001 - listeners must not
                pass               # kill dispatch workers

    def failures(self) -> list[tuple[str, BaseException]]:
        """Snapshot copy of every (actor name, error) recorded so far."""
        with self._failures_lock:
            return list(self._failures)

    def set_directive(self, ref: ActorRef,
                      directive: Optional[SupervisionDirective]) -> None:
        """Change one actor's supervision override (None = system default)."""
        with self._cells_lock:
            cell = self._cells.get(ref.name)
        if cell is not None and cell.ref == ref:
            cell.directive = directive

    @property
    def actor_count(self) -> int:
        with self._cells_lock:
            return len(self._cells)

    def __enter__(self) -> "ActorSystem":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
