"""``cluster`` — two nodes on one loopback hub, the ROADMAP message path.

Two :class:`~repro.cluster.node.ClusterNode`\\ s (``a`` and ``b``) share
one :class:`~repro.cluster.transport.LoopbackHub` in this process, with
the shipped ``BENCH_CONFIG`` and ``workers=2`` each.  A client actor on
``a`` sends ``("req", id, payload)`` through a path-addressed
``RemoteRef`` to an echo actor on ``b``, which answers
``("rep", id, payload)`` through the client's own ``RemoteRef`` — both
directions cross serializer → transport → Outbox/DedupTable/CreditGate
→ mailbox → executor → handler.

* **phase A** — one request outstanding, the smallest payload of the
  mix: latency-bound, every round trip timed (``latency_us``, with
  ``rtt_p99_us`` in the report);
* **phase B** — a closed window of 32 outstanding requests, payloads
  drawn from the seeded mix of ``SMALL`` and ``LARGE`` ones:
  throughput-bound, round trips completed per second
  (``throughput_per_s``).

One client flow; phases alternate in seed-shuffled rounds on the same
node pair.  Every reply must echo its request id and payload; a reply
that never comes, a timeout or a dead letter counts as a failure.
"""

from __future__ import annotations

import itertools
import random
import threading
from array import array
from typing import Any, Optional

from repro.actors import Actor

from common import (Hist, Hung, Run, block_quantiles, geomean,
                    host_scale, median, now_ns, settle)

WINDOW_B = 32
POOL = 256
#: payload sizes (bytes) of the phase-B mix, half of the pool each.  The
#: shipped cluster programs send only a few bytes per message (ints,
#: short strings and tuples), which ``SMALL`` stands for; ``LARGE`` is
#: "a few KiB".  The even split is a stand-in, not a measured traffic
#: mix.
SMALL, LARGE = 8, 4096
#: target length of one timed block: a run holds dozens of blocks per
#: phase
BLOCK_S = 0.2
#: a phase-A block runs past its deadline until it holds this many
#: round trips, so its p99 has ten samples beyond it
MIN_A = 1000
#: node pairs built (and timed) per run; ``setup_s`` is their median
SETUPS = 15


def make_inputs(seed: int) -> dict[str, Any]:
    """Payload pool in a seeded order, random content; phase A sends
    the first small payload."""
    rng = random.Random(seed)
    sizes = [SMALL, LARGE] * (POOL // 2)
    rng.shuffle(sizes)
    pool = [rng.randbytes(size) for size in sizes]
    return {"pool": pool, "small": [pool[sizes.index(SMALL)]], "rng": rng}


class Echo(Actor):
    def receive(self, message, sender):
        sender.tell(("rep", message[1], message[2]), sender=self.self_ref)


class Client(Actor):
    """Closed-loop request source with ``window`` requests outstanding.

    ``("start", block)`` begins one block; each reply is checked
    against its request and, until the block's deadline, answered with
    the next request.  The block's ``done`` event fires when the last
    outstanding reply is in.
    """

    def __init__(self, target, me, ids):
        super().__init__()
        self.target = target
        self.me = me
        self.ids = ids
        self.block: Optional[Block] = None
        self.out: dict = {}

    def _send(self) -> None:
        b = self.block
        rid = next(self.ids)
        payload = b.payloads[rid % len(b.payloads)]
        self.out[rid] = (now_ns(), payload)
        b.sent += 1
        self.target.tell(("req", rid, payload), sender=self.me)

    def receive(self, message, sender):
        if message[0] == "start":
            b = self.block = message[1]
            b.t0 = now_ns()
            b.deadline = b.t0 + int(b.seconds * 1e9)
            for _ in range(b.window):
                self._send()
            return
        b = self.block
        t = now_ns()
        sent = self.out.pop(message[1], None)
        if sent is None:
            b.problems.append(f"reply {message[1]} matches no request")
        else:
            b.lat_ns.append(t - sent[0])
            if message[2] != sent[1]:
                b.problems.append(f"reply {message[1]} payload differs")
        if t < b.deadline or len(b.lat_ns) < b.min_n:
            self._send()
        elif not self.out:
            b.t1 = t
            b.done.set()


class Block:
    def __init__(self, phase: str, window: int, payloads: list,
                 seconds: float, min_n: int = 0):
        self.phase = phase
        self.window = window
        self.min_n = min_n
        self.payloads = payloads
        self.seconds = seconds
        self.lat_ns = array("q")
        self.problems: list[str] = []
        self.done = threading.Event()
        self.sent = 0
        self.t0 = self.t1 = self.deadline = 0
        self.ref = 0


class Pair:
    """Hub + two nodes + echo + client, and their teardown."""

    def __init__(self, ids) -> None:
        from repro.cluster.bench import BENCH_CONFIG
        from repro.cluster.message import PickleSerializer, make_path
        from repro.cluster.node import ClusterNode, RemoteRef
        from repro.cluster.transport import LoopbackHub

        t0 = now_ns()
        self.hub = LoopbackHub()
        self.a = ClusterNode("a", self.hub.join("a"),
                             serializer=PickleSerializer(),
                             config=BENCH_CONFIG, workers=2)
        self.b = ClusterNode("b", self.hub.join("b"),
                             serializer=PickleSerializer(),
                             config=BENCH_CONFIG, workers=2)
        self.a.connect("b")
        self.b.connect("a")
        self.b.spawn(Echo, name="echo")
        self.client = self.a.spawn(
            Client, RemoteRef(self.a, make_path("b", "echo")),
            RemoteRef(self.a, make_path("a", "client")), ids,
            name="client")
        self.setup_ns = now_ns() - t0

    def frames(self) -> int:
        return sum(self.hub.delivered.values())

    def executor(self) -> tuple[int, int]:
        parks = steals = 0
        for node in (self.a, self.b):
            st = node.system.executor_stats()
            parks += st["parks"]
            steals += st["steals"]
        return parks, steals

    def close(self, run: Optional[Run] = None) -> None:
        for node in (self.a, self.b):
            if run is not None:
                for dl in node.dead_letters():
                    run.fail(f"dead letter on {node.name}: {dl}")
                for name, err in node.system.failures():
                    run.fail(f"actor {name} failed on {node.name}: {err!r}")
            node.close()


def build_pairs(run: Run, ids, count: int) -> tuple[Pair, list[float]]:
    """Build ``count`` pairs, timing each (normalised to the nominal
    host), and keep the last one."""
    setups = []
    pair = None
    for _ in range(count):
        if pair is not None:
            pair.close(run)
        ref = settle()
        pair = Pair(ids)
        setups.append(pair.setup_ns * host_scale(ref))
    return pair, setups


def run_block(run: Run, pair: Pair, block: Block) -> Block:
    block.ref = settle()
    pair.client.tell(("start", block))
    hung = not block.done.wait(block.seconds + 30)
    run.attempt(block.sent)
    for problem in block.problems:
        run.fail(problem)
    if hung:
        lost = max(1, block.sent - len(block.lat_ns))
        what = f"phase {block.phase}: hung, {lost} replies lost"
        run.fail(what, lost)
        raise Hung(what)
    return block


class Pass:
    def __init__(self) -> None:
        self.pooled_a = Hist()
        self.p50s_a: list[float] = []
        self.p99s_a: list[float] = []
        self.n_a: list[int] = []
        self.rates_b: list[float] = []
        self.blocks: list[Block] = []

    def costs(self) -> dict[str, float]:
        return {"a.rtt_us": median(self.p50s_a),
                "b.us_per_msg": 1e6 / median(self.rates_b)}


def run_pass(run: Run, pair: Pair, inputs: dict, seconds: float,
             label: str) -> Pass:
    """Rounds of one ~``BLOCK_S`` block of each phase for ``seconds``;
    every block's figures normalised to the nominal host."""
    res = Pass()
    rng = inputs["rng"]
    rounds = max(2, round(seconds / (2 * BLOCK_S)))
    block_s = seconds / (2 * rounds)
    for rnd in range(rounds):
        phases = ["A", "B"]
        rng.shuffle(phases)
        for phase in phases:
            if phase == "A":
                b = run_block(run, pair, Block("A", 1, inputs["small"],
                                               block_s, MIN_A))
                scale = host_scale(b.ref)
                n = len(b.lat_ns)
                if n:
                    p50, p99 = block_quantiles(b.lat_ns, 0.5, 0.99)
                    res.pooled_a.add(b.lat_ns)
                    res.p50s_a.append(p50 / 1e3 * scale)
                    res.p99s_a.append(p99 / 1e3 * scale)
                    res.n_a.append(n)
                    run.repetition(f"{label}.A", round=rnd, n=n,
                                   p50_us=p50 / 1e3, p99_us=p99 / 1e3,
                                   scale=scale)
            else:
                b = run_block(run, pair,
                              Block("B", WINDOW_B, inputs["pool"], block_s))
                scale = host_scale(b.ref)
                wall = (b.t1 - b.t0) / 1e9
                rate = len(b.lat_ns) / wall if wall > 0 else 0.0
                res.rates_b.append(rate / scale)
                run.repetition(f"{label}.B", round=rnd, n=len(b.lat_ns),
                               msgs_per_s=rate, scale=scale)
            res.blocks.append(b)
    return res


def warmup(run: Run, pair: Pair, inputs: dict) -> None:
    for phase, window, payloads in (("A", 1, inputs["small"]),
                                    ("B", WINDOW_B, inputs["pool"])):
        run_block(run, pair, Block(phase, window, payloads, 0.1))


def run_bare(run: Run, seconds: float) -> None:
    inputs = make_inputs(run.seed)
    ids = itertools.count()
    warm = Pair(ids)                 # imports and first-use costs
    warm.close(run)
    pair, setups = build_pairs(run, ids, SETUPS)
    try:
        warmup(run, pair, inputs)
        res = run_pass(run, pair, inputs, seconds, label="bare")
    finally:
        pair.close(run)
    run.metric("setup_s", median(setups) / 1e9, "s", n=len(setups))
    run.latency("latency_us", res.p50s_a, res.pooled_a)
    # p99 per block (each block holds >= MIN_A round trips, so ten or
    # more samples lie beyond it), then across blocks as for the median
    run.metric("rtt_p99_us", median(res.p99s_a), "us",
               n=res.pooled_a.n,
               blocks=len(res.p99s_a), min_block_n=min(res.n_a),
               pooled_p99=res.pooled_a.quantile(0.99) / 1e3)
    run.metric("throughput_per_s", median(res.rates_b), "1/s",
               n=len(res.rates_b))


# ---------------------------------------------------------------------------
# traced run and reconciliation
# ---------------------------------------------------------------------------

def _recon(run: Run, tracer: Any, blocks: list[Block], phase: str,
           e2e_us: float, prefix: str) -> None:
    """Σ(layer self time per message) against the end-to-end cost."""
    import layers
    mine = [b for b in blocks if b.phase == phase]
    msgs = sum(len(b.lat_ns) for b in mine)
    agg = tracer.layer_times([(b.t0, b.t1) for b in mine])
    if not msgs:
        return
    run.notes.append(f"reconciliation, phase {phase} ({msgs} round trips, "
                     f"end to end {e2e_us:.2f} us per round trip):")
    attributed = 0.0
    for name in layers.CLUSTER_LADDER + ("cluster.node.on_frame",):
        a = agg.get(name)
        if not a:
            continue
        per_msg = a["self_ns"] / msgs / 1e3
        if name != "cluster.node.on_frame":
            attributed += per_msg
        run.notes.append(f"  {name:<36} {a['calls'] / msgs:6.2f} calls/msg "
                         f"x {a['self_ns'] / a['calls']:8.0f} ns = "
                         f"{per_msg:7.2f} us/msg")
    rest = e2e_us - attributed
    node_rx = agg.get("cluster.node.on_frame", {}).get("self_ns", 0)
    run.notes.append(f"  {'attributed to layers':<36} {attributed:7.2f} "
                     f"us/msg ({attributed / e2e_us:.1%})")
    run.notes.append(f"  {'unattributed (node glue, handoffs)':<36} "
                     f"{rest:7.2f} us/msg ({rest / e2e_us:.1%}; of which "
                     f"receive-side node self {node_rx / msgs / 1e3:.2f})")
    run.metric(f"{prefix}node.self_us_per_msg", rest, "us", n=msgs)
    run.metric(f"{prefix}unattributed_share", rest / e2e_us, "ratio",
               n=msgs)


def run_traced(run: Run, seconds: float, inject_ns: int = 0) -> None:
    import layers
    from tracer import Tracer

    inputs = make_inputs(run.seed)
    ids = itertools.count()
    pair = Pair(ids)
    try:
        warmup(run, pair, inputs)
        bare = run_pass(run, pair, inputs, seconds * 0.3, label="bare")
    finally:
        pair.close(run)
    tracer = Tracer()
    layers.install(tracer, (Echo, Client), inject_ns)
    try:
        pair = Pair(ids)
        try:
            warmup(run, pair, inputs)
            tracer.clear()
            frames0, (parks0, steals0) = pair.frames(), pair.executor()
            t_from = now_ns()
            traced = run_pass(run, pair, inputs, seconds * 0.55,
                              label="traced")
            t_to = now_ns()
            frames = pair.frames() - frames0
            parks, steals = pair.executor()
        finally:
            pair.close(run)
    finally:
        tracer.restore()

    msgs = sum(len(b.lat_ns) for b in traced.blocks)
    layers.report_common(run, tracer, t_from, t_to)
    window = [(t_from, t_to)]
    handled = tracer.layer_times(window).get(
        "actors.handler", {}).get("calls", 0)
    run.metric("actors.executor.parks_per_msg",
               (parks - parks0) / handled, "count", n=handled)
    run.metric("actors.executor.steals_per_msg",
               (steals - steals0) / handled, "count", n=handled)
    _, nbytes = tracer.mark_sum("cluster.message.bytes", window)
    run.metric("cluster.message.bytes_per_msg", nbytes / msgs, "bytes",
               n=msgs)
    run.metric("cluster.transport.frames_per_msg", frames / msgs, "count",
               n=msgs)
    for metric, mark, scale in (
            ("cluster.delivery.credit_wait_us",
             "cluster.delivery.credit_wait", 1e-3),
            ("cluster.delivery.retransmits_per_msg",
             "cluster.delivery.retransmits", 1.0),
            ("cluster.delivery.duplicates_per_msg",
             "cluster.delivery.duplicates", 1.0)):
        _, total = tracer.mark_sum(mark, window)
        run.metric(metric, total * scale / msgs, dict(layers.PER_LAYER)[
            metric], n=msgs)

    # reconciliation: A against the mean round trip, B against wall per
    # completed round trip (both with tracing on, like the spans)
    lat_a = [v for b in traced.blocks if b.phase == "A" for v in b.lat_ns]
    _recon(run, tracer, traced.blocks, "A",
           sum(lat_a) / len(lat_a) / 1e3, "cluster.")
    wall_b = sum(b.t1 - b.t0 for b in traced.blocks if b.phase == "B")
    msgs_b = sum(len(b.lat_ns) for b in traced.blocks if b.phase == "B")
    _recon(run, tracer, traced.blocks, "B", wall_b / msgs_b / 1e3,
           "cluster.b.")

    cost_b, cost_t = bare.costs(), traced.costs()
    run.metric("obs.tracing_overhead",
               geomean(cost_t[k] / cost_b[k] for k in cost_b), "ratio",
               n=len(cost_b))
    for k in cost_b:
        run.notes.append(f"tracing overhead {k}: "
                         f"{cost_t[k] / cost_b[k]:.3f}x "
                         f"({cost_b[k]:.2f} -> {cost_t[k]:.2f} us)")
    layers.fill_missing(run)
