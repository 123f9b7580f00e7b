"""``threads``, ``actors``, ``coroutines`` — the paper's comparison: one
problem, three models, one workload per model.

Two phases on the workload's runtime, built only from its public API:

* **pingpong** — one round trip outstanding; every round trip is timed
  from the request's send to the reply's arrival;
* **buffer** — one producer, one consumer, a bounded buffer of
  ``CAPACITY`` items (``BlockingQueue``/``JThread``,
  ``ActorSystem(workers=2)`` actors, ``CoScheduler``/``CoChannel``);
  throughput is items consumed per second.  A buffer block moves a
  fixed number of items, not as many as fit in its time: the
  exactly-once audit of a block holds all of its items several times
  over, so a block sized by time made the run's peak memory follow
  the host's speed.

A run is a sequence of rounds; each round runs both phases for one
short block each, in a seed-shuffled order, so drift within the
process spreads over both alike.  Each block builds its own
queues/systems/schedulers (timed as set-up) and checks its outputs.
The run reports the pingpong round trip as ``latency_us`` and the
buffer's items per second as ``throughput_per_s``.
"""

from __future__ import annotations

import random
import threading
from array import array
from typing import Any, Callable

from repro.actors import Actor

from common import (Hist, Hung, Run, block_quantiles, geomean,
                    host_scale, median, now_ns, settle)

PHASES = ("pingpong", "buffer")
CAPACITY = 16
PAYLOADS = 64
#: length of one timed pingpong block; a run is many short blocks, so
#: a burst of host noise spoils few of them
BLOCK_S = 0.08
#: items per second a buffer moves on the nominal host (see
#: ``common.host_scale``), which sizes a buffer block to ~``BLOCK_S``
NOMINAL_RATE = {"threads": 160_000, "actors": 70_000,
                "coroutines": 240_000}
#: how long past its deadline a block may take before it counts as hung
GRACE_S = 30.0


def make_inputs(seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    return {"payloads": [rng.randbytes(rng.randint(1, 32))
                         for _ in range(PAYLOADS)],
            "rng": rng}


class Block:
    """Outcome of one timed block of one cell."""

    def __init__(self) -> None:
        self.setup_ns = 0
        self.lat_ns = array("q")     # pingpong: per round trip
        self.items = 0               # buffer: items consumed
        self.wall_ns = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.lost = 0                # requests/items never answered
        self.exec = (0, 0, 0)        # actors: parks, steals, messages


def _join(b: Block, what: str, threads: list, queues: list,
          seconds: float) -> bool:
    """Join a block's threads; False if one of them hung.

    A thread still blocked ``GRACE_S`` past the block's time is hung:
    the block's queues are closed so that its blocked put or take
    raises and the thread ends (the threads are daemons, so one that
    still does not end cannot hold the process at exit).
    """
    hung = False
    for t in threads:
        try:
            t.join(timeout=seconds + GRACE_S)
        except TimeoutError:
            hung = True
            break
        except Exception as exc:        # noqa: BLE001 - a checked output
            b.problems.append(f"{what}: {t.name} raised {exc!r}")
    if hung:
        for q in queues:
            q.close()
        for t in threads:
            try:
                t.join(timeout=1.0)
            except Exception:           # noqa: BLE001 - already a failure
                pass
    return not hung


# ---------------------------------------------------------------------------
# pingpong
# ---------------------------------------------------------------------------

def threads_pingpong(payloads: list, seconds: float) -> Block:
    from repro.threads import BlockingQueue, JThread

    b = Block()
    go = threading.Event()
    t0 = now_ns()
    req: Any = BlockingQueue(name="ping")
    rep: Any = BlockingQueue(name="pong")
    lat = b.lat_ns
    bad: list = []
    npay = len(payloads)

    def pinger() -> None:
        go.wait()
        clock = now_ns
        deadline = clock() + int(seconds * 1e9)
        i = 0
        while True:
            p = payloads[i % npay]
            t = clock()
            if t >= deadline:
                break
            req.put(("ping", i, p))
            msg = rep.take()
            lat.append(clock() - t)
            if msg[1] != i or msg[2] is not p:
                bad.append(i)
            i += 1
        req.put(None)

    def ponger() -> None:
        while True:
            msg = req.take()
            if msg is None:
                return
            rep.put(("pong", msg[1], msg[2]))

    threads = [JThread(target=pinger, name="pinger", daemon=True),
               JThread(target=ponger, name="ponger", daemon=True)]
    for t in threads:
        t.start()
    b.setup_ns = now_ns() - t0
    go.set()
    if not _join(b, "threads pingpong", threads, [req, rep], seconds):
        b.lost = 1                      # the one request outstanding
    b.attempted = len(lat) + b.lost
    b.problems += [f"threads pingpong: reply {i} did not echo its request"
                   for i in bad[:5]]
    return b


class Ponger(Actor):
    def receive(self, message, sender):
        sender.tell(("pong", message[1], message[2]), sender=self.self_ref)


class Pinger(Actor):
    """Closed loop: the next ping leaves when the last pong arrived."""

    def __init__(self, ponger, payloads, seconds, block, bad, done):
        super().__init__()
        self.ponger = ponger
        self.payloads = payloads
        self.seconds = seconds
        self.lat = block.lat_ns
        self.bad = bad
        self.done = done
        self.i = 0
        self.t = 0
        self.deadline = 0

    def receive(self, message, sender):
        clock = now_ns
        payloads = self.payloads
        if message[0] == "start":
            self.deadline = clock() + int(self.seconds * 1e9)
        else:
            self.lat.append(clock() - self.t)
            if message[1] != self.i or \
                    message[2] is not payloads[self.i % len(payloads)]:
                self.bad.append(self.i)
            self.i += 1
        t = clock()
        if t >= self.deadline:
            self.done.set()
            return
        self.t = t
        self.ponger.tell(("ping", self.i, payloads[self.i % len(payloads)]),
                         sender=self.self_ref)


def _actor_problems(b: Block, what: str, system: Any) -> None:
    b.problems += [f"{what}: failure {f}" for f in system.failures()[:5]]
    b.problems += [f"{what}: dead letter {d}"
                   for d in system.dead_letters[:5]]


def actors_pingpong(payloads: list, seconds: float) -> Block:
    from repro.actors import ActorSystem

    b = Block()
    done = threading.Event()
    bad: list = []
    t0 = now_ns()
    system = ActorSystem(workers=2, name="pingpong")
    try:
        ponger = system.spawn(Ponger, name="ponger")
        pinger = system.spawn(Pinger, ponger, payloads, seconds, b, bad,
                              done, name="pinger")
        b.setup_ns = now_ns() - t0
        pinger.tell(("start", -1))
        if not done.wait(seconds + GRACE_S):
            b.lost = 1                  # the one request outstanding
        st = system.executor_stats()
        b.exec = (st["parks"], st["steals"], 2 * len(b.lat_ns) + 1)
    finally:
        system.shutdown()
    b.attempted = len(b.lat_ns) + b.lost
    b.problems += [f"actors pingpong: reply {i} did not echo its request"
                   for i in bad[:5]]
    _actor_problems(b, "actors pingpong", system)
    return b


def coroutines_pingpong(payloads: list, seconds: float) -> Block:
    from repro.coroutines import CoChannel, CoDeadlock, CoScheduler

    b = Block()
    lat = b.lat_ns
    bad: list = []
    npay = len(payloads)
    t0 = now_ns()
    req = CoChannel(capacity=1)
    rep = CoChannel(capacity=1)

    def pinger():
        clock = now_ns
        deadline = clock() + int(seconds * 1e9)
        i = 0
        while True:
            p = payloads[i % npay]
            t = clock()
            if t >= deadline:
                break
            yield from req.put(("ping", i, p))
            msg = yield from rep.get()
            lat.append(clock() - t)
            if msg[1] != i or msg[2] is not p:
                bad.append(i)
            i += 1
        yield from req.put(None)

    def ponger():
        while True:
            msg = yield from req.get()
            if msg is None:
                return
            yield from rep.put(("pong", msg[1], msg[2]))

    sched = CoScheduler()
    sched.spawn(pinger, name="pinger")
    sched.spawn(ponger, name="ponger")
    b.setup_ns = now_ns() - t0
    try:
        sched.run(max_steps=1 << 62)
    except CoDeadlock:
        b.lost = 1                      # the one request outstanding
    b.attempted = len(lat) + b.lost
    b.problems += [f"coroutines pingpong: reply {i} did not echo its "
                   f"request" for i in bad[:5]]
    return b


# ---------------------------------------------------------------------------
# bounded buffer, 1 producer / 1 consumer
# ---------------------------------------------------------------------------

def _audit(b: Block, runtime: str, consumed: list, produced: int,
           hung: bool) -> None:
    """Check the consumed items; on a hang, every item produced but not
    consumed is lost (at least the one operation in flight)."""
    from repro.problems.bounded_buffer import (audit_consumption,
                                               audit_fifo_single)
    b.items = len(consumed)
    if hung:
        b.lost = max(1, produced - len(consumed))
        b.attempted = len(consumed) + b.lost
        return
    b.attempted = produced
    problem = audit_consumption(consumed, 1, produced) \
        or audit_fifo_single(consumed, 1)
    if problem:
        b.problems.append(f"{runtime} buffer: {problem}")


def threads_buffer(items: int) -> Block:
    from repro.threads import BlockingQueue, JThread

    b = Block()
    go = threading.Event()
    consumed: list = []
    produced = [0]
    span = [0, 0]
    t0 = now_ns()
    buf: Any = BlockingQueue(capacity=CAPACITY, name="buffer")

    def producer() -> None:
        go.wait()
        clock = now_ns
        span[0] = clock()
        k = 0
        try:
            while k < items:
                buf.put((0, k))
                k += 1
        finally:
            produced[0] = k
        buf.put(None)

    def consumer() -> None:
        append = consumed.append
        while True:
            item = buf.take()
            if item is None:
                span[1] = now_ns()
                return
            append(item)

    threads = [JThread(target=producer, name="producer", daemon=True),
               JThread(target=consumer, name="consumer", daemon=True)]
    for t in threads:
        t.start()
    b.setup_ns = now_ns() - t0
    go.set()
    ok = _join(b, "threads buffer", threads, [buf], BLOCK_S)
    b.wall_ns = span[1] - span[0]
    _audit(b, "threads", consumed, produced[0], hung=not ok)
    return b


class Buffer(Actor):
    """Defers gets while empty and puts while full; after ``close`` it
    answers waiting getters with ``eof`` once drained."""

    def __init__(self):
        super().__init__()
        self.items: list = []
        self.getters: list = []
        self.putters: list = []
        self.closed = False

    def receive(self, message, sender):
        kind = message[0]
        if kind == "put":
            if len(self.items) < CAPACITY:
                self.items.append(message[2])
                sender.tell(("ok", message[1]), sender=self.self_ref)
            else:
                self.putters.append((message, sender))
        elif kind == "get":
            self.getters.append((message[1], sender))
        else:                                       # close
            self.closed = True
        self._serve()

    def _serve(self):
        while True:
            if self.items and self.getters:
                n, getter = self.getters.pop(0)
                getter.tell(("item", n, self.items.pop(0)),
                            sender=self.self_ref)
            elif self.putters and len(self.items) < CAPACITY:
                message, putter = self.putters.pop(0)
                self.items.append(message[2])
                putter.tell(("ok", message[1]), sender=self.self_ref)
            elif self.closed and not self.items and self.getters:
                n, getter = self.getters.pop(0)
                getter.tell(("eof", n), sender=self.self_ref)
            else:
                return


class Producer(Actor):
    """Puts ``(0, k)`` items, one outstanding, ``items`` of them."""

    def __init__(self, buffer, items, span, produced):
        super().__init__()
        self.buffer = buffer
        self.items = items
        self.span = span
        self.produced = produced
        self.k = 0

    def receive(self, message, sender):
        if message[0] == "start":
            self.span[0] = now_ns()
        if self.k >= self.items:
            self.produced[0] = self.k
            self.buffer.tell(("close", -1), sender=self.self_ref)
            return
        self.buffer.tell(("put", self.k, (0, self.k)), sender=self.self_ref)
        self.k += 1


class Consumer(Actor):
    """Gets items, one request outstanding, until ``eof``."""

    def __init__(self, buffer, consumed, span, done):
        super().__init__()
        self.buffer = buffer
        self.consumed = consumed
        self.span = span
        self.done = done
        self.n = 0

    def receive(self, message, sender):
        if message[0] == "item":
            self.consumed.append(message[2])
        elif message[0] == "eof":
            self.span[1] = now_ns()
            self.done.set()
            return
        self.n += 1
        self.buffer.tell(("get", self.n), sender=self.self_ref)


#: every actor class of this workload (their ``receive`` is traced)
ACTOR_CLASSES = (Ponger, Pinger, Buffer, Producer, Consumer)


def actors_buffer(items: int) -> Block:
    from repro.actors import ActorSystem

    b = Block()
    done = threading.Event()
    consumed: list = []
    produced = [0]
    span = [0, 0]
    t0 = now_ns()
    system = ActorSystem(workers=2, name="buffer")
    try:
        buffer = system.spawn(Buffer, name="buffer")
        producer = system.spawn(Producer, buffer, items, span, produced,
                                name="producer")
        consumer = system.spawn(Consumer, buffer, consumed, span, done,
                                name="consumer")
        b.setup_ns = now_ns() - t0
        consumer.tell(("start", -1))
        producer.tell(("start", -1))
        ok = done.wait(BLOCK_S + GRACE_S)
        st = system.executor_stats()
        b.exec = (st["parks"], st["steals"], 4 * len(consumed) + 4)
    finally:
        system.shutdown()
    b.wall_ns = span[1] - span[0]
    _audit(b, "actors", consumed, produced[0], hung=not ok)
    _actor_problems(b, "actors buffer", system)
    return b


def coroutines_buffer(items: int) -> Block:
    from repro.coroutines import (ChannelClosed, CoChannel, CoDeadlock,
                                  CoScheduler)

    b = Block()
    consumed: list = []
    produced = [0]
    span = [0, 0]
    t0 = now_ns()
    chan = CoChannel(capacity=CAPACITY)

    def producer():
        clock = now_ns
        span[0] = clock()
        k = 0
        try:
            while k < items:
                yield from chan.put((0, k))
                k += 1
        finally:
            produced[0] = k
        yield from chan.close()

    def consumer():
        append = consumed.append
        while True:
            try:
                append((yield from chan.get()))
            except ChannelClosed:
                span[1] = now_ns()
                return

    sched = CoScheduler()
    sched.spawn(producer, name="producer")
    sched.spawn(consumer, name="consumer")
    b.setup_ns = now_ns() - t0
    ok = True
    try:
        sched.run(max_steps=1 << 62)
    except CoDeadlock:
        ok = False
        for task in sched.tasks:        # runs the producer's ``finally``
            task.gen.close()
    b.wall_ns = span[1] - span[0]
    _audit(b, "coroutines", consumed, produced[0], hung=not ok)
    return b


def run_cell(run: Run, runtime: str, phase: str, inputs: dict,
             seconds: float) -> Block:
    """One checked block of one cell — a pingpong of ``seconds``, a
    buffer of as many items as it moves in ``seconds`` on the nominal
    host — its outcome counted in ``run``; raises :class:`Hung` once
    the losses of a hung block are counted."""
    if phase == "pingpong":
        fn: Callable = {"threads": threads_pingpong,
                        "actors": actors_pingpong,
                        "coroutines": coroutines_pingpong}[runtime]
        b = fn(inputs["payloads"], seconds)
    else:
        fn = {"threads": threads_buffer, "actors": actors_buffer,
              "coroutines": coroutines_buffer}[runtime]
        b = fn(max(100, round(NOMINAL_RATE[runtime] * seconds)))
    run.attempt(b.attempted)
    for problem in b.problems:
        run.fail(problem)
    if b.lost:
        what = f"{runtime} {phase}: hung, {b.lost} left unanswered"
        run.fail(what, b.lost)
        raise Hung(what)
    return b


# ---------------------------------------------------------------------------
# one pass: rounds of every cell
# ---------------------------------------------------------------------------

class Pass:
    """One runtime's blocks from one sequence of rounds."""

    def __init__(self, runtime: str) -> None:
        self.runtime = runtime
        self.pooled = Hist()
        self.p50s: list[float] = []
        self.rates: list[float] = []
        self.round_setup_ns: list[int] = []
        self.exec = [0, 0, 0]

    def rtt_us(self) -> float:
        return median(self.p50s)

    def items_per_s(self) -> float:
        return median(self.rates)

    def costs(self) -> dict[str, float]:
        """Per-operation cost of both phases (µs), for overhead ratios."""
        return {"pingpong": self.rtt_us(),
                "buffer": 1e6 / self.items_per_s()}


def run_pass(run: Run, inputs: dict, seconds: float, label: str,
             runtime: str) -> Pass:
    """Rounds of one ~``BLOCK_S`` block of each phase (at least three)
    for ``seconds``; every block's figures normalised to the nominal
    host."""
    rng = inputs["rng"]
    res = Pass(runtime)
    t_end = now_ns() + int(seconds * 1e9)
    rnd = 0
    while rnd < 3 or now_ns() < t_end:
        order = list(PHASES)
        rng.shuffle(order)
        setup = 0.0
        for phase in order:
            ref = settle()
            b = run_cell(run, runtime, phase, inputs, BLOCK_S)
            scale = host_scale(ref)
            setup += b.setup_ns * scale
            if phase == "pingpong":
                n = len(b.lat_ns)
                p50 = block_quantiles(b.lat_ns, 0.5)[0] / 1e3 if n else 0.0
                res.pooled.add(b.lat_ns)
                res.p50s.append(p50 * scale)
                run.repetition(f"{label}.{runtime}.pingpong", round=rnd,
                               n=n, p50_us=p50, scale=scale,
                               setup_ms=b.setup_ns / 1e6)
            else:
                rate = b.items / (b.wall_ns / 1e9) if b.wall_ns > 0 else 0.0
                res.rates.append(rate / scale)
                run.repetition(f"{label}.{runtime}.buffer", round=rnd,
                               items=b.items, items_per_s=rate, scale=scale,
                               setup_ms=b.setup_ns / 1e6)
            for i, v in enumerate(b.exec):
                res.exec[i] += v
        res.round_setup_ns.append(setup)
        rnd += 1
    return res


def warmup(run: Run, inputs: dict, runtime: str) -> None:
    """One short untimed (but checked) block per phase: imports, caches,
    code paths."""
    for phase in PHASES:
        run_cell(run, runtime, phase, inputs, 0.02)


def run_bare(run: Run, seconds: float, runtime: str) -> None:
    inputs = make_inputs(run.seed)
    warmup(run, inputs, runtime)
    res = run_pass(run, inputs, seconds, "bare", runtime)
    run.metric("setup_s", median(res.round_setup_ns) / 1e9, "s",
               n=len(res.round_setup_ns))
    run.latency("latency_us", res.p50s, res.pooled)
    run.metric("throughput_per_s", res.items_per_s(), "1/s",
               n=len(res.rates))


# ---------------------------------------------------------------------------
# traced run: bare pass, traced pass, profiler-overhead pass
# ---------------------------------------------------------------------------

def profiler_overhead(run: Run, bare: Pass, seconds: float) -> None:
    """Profiled over bare wall time of the runtime's shipped pingpong
    runner, through its public ``profiler=`` argument, alternating
    A/B."""
    from repro.obs.profile import Profiler
    from repro.problems.pingpong import (run_actor_pingpong,
                                         run_coroutine_pingpong,
                                         run_threads_pingpong)
    runners = {"threads": run_threads_pingpong,
               "actors": run_actor_pingpong,
               "coroutines": run_coroutine_pingpong}
    runtime = bare.runtime
    runner = runners[runtime]
    pairs = 5
    per_call = seconds / (pairs * 2)
    rounds = max(200, int(per_call * 1e6 / bare.rtt_us()))
    ratios = []
    for _ in range(pairs):
        walls = []
        for profiler in (None, Profiler()):
            settle()
            t0 = now_ns()
            got = runner(rounds, profiler=profiler)
            walls.append(now_ns() - t0)
            run.check(got == rounds,
                      f"{runtime} pingpong runner lost replies")
        ratios.append(walls[1] / walls[0])
    run.metric(f"obs.profiler_overhead.{runtime}", median(ratios),
               "ratio", n=len(ratios), rounds=rounds)


def run_traced(run: Run, seconds: float, inject_ns: int = 0,
               runtime: str = "threads") -> None:
    import layers
    from tracer import Tracer

    inputs = make_inputs(run.seed)
    warmup(run, inputs, runtime)
    bare = run_pass(run, inputs, seconds * 0.25, "bare", runtime)
    tracer = Tracer()
    layers.install(tracer, ACTOR_CLASSES, inject_ns)
    try:
        t_from = now_ns()
        traced = run_pass(run, inputs, seconds * 0.25, "traced", runtime)
        t_to = now_ns()
    finally:
        tracer.restore()
    layers.report_common(run, tracer, t_from, t_to)
    parks, steals, msgs = traced.exec
    if msgs:
        run.metric("actors.executor.parks_per_msg", parks / msgs, "count",
                   n=msgs)
        run.metric("actors.executor.steals_per_msg", steals / msgs,
                   "count", n=msgs)
    cost_b, cost_t = bare.costs(), traced.costs()
    run.metric("obs.tracing_overhead",
               geomean(cost_t[k] / cost_b[k] for k in cost_b), "ratio",
               n=len(cost_b))
    for k in cost_b:
        run.notes.append(f"tracing overhead {runtime}.{k}: "
                         f"{cost_t[k] / cost_b[k]:.3f}x "
                         f"({cost_b[k]:.3f} -> {cost_t[k]:.3f} us/op)")
    profiler_overhead(run, bare, seconds * 0.3)
    layers.fill_missing(run)

