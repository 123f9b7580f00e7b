"""The layer ladder: which public callables are wrapped, and the
per-layer metrics computed from their spans.

Every traced run installs the same wrappers, whatever the workload, so
a layer a workload never reaches reports zero calls there — the
"predicted flat" column of the ladder, measured.  ``PER_LAYER`` is the
complete list of per-layer metrics each traced run prints; a metric
whose layer did no work in the run reads 0.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from tracer import Tracer

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str]] = [
    ("threads.put_ns", "ns"),
    ("threads.take_wait_us", "us"),
    ("coroutines.put_ns", "ns"),
    ("coroutines.get_wait_us", "us"),
    ("actors.tell_ns", "ns"),
    ("actors.dispatch_wait_us", "us"),
    ("actors.handler_ns", "ns"),
    ("actors.executor.parks_per_msg", "count"),
    ("actors.executor.steals_per_msg", "count"),
    ("cluster.message.encode_ns", "ns"),
    ("cluster.message.decode_ns", "ns"),
    ("cluster.message.bytes_per_msg", "bytes"),
    ("cluster.transport.send_self_ns", "ns"),
    ("cluster.transport.frames_per_msg", "count"),
    ("cluster.delivery.outbox_register_ns", "ns"),
    ("cluster.delivery.outbox_on_ack_ns", "ns"),
    ("cluster.delivery.dedup_fresh_ns", "ns"),
    ("cluster.delivery.credit_acquire_ns", "ns"),
    ("cluster.delivery.credit_release_ns", "ns"),
    ("cluster.delivery.credit_wait_us", "us"),
    ("cluster.delivery.retransmits_per_msg", "count"),
    ("cluster.delivery.duplicates_per_msg", "count"),
    ("cluster.node.self_us_per_msg", "us"),
    ("cluster.unattributed_share", "ratio"),
    ("cluster.b.node.self_us_per_msg", "us"),
    ("cluster.b.unattributed_share", "ratio"),
    ("core.scheduler.step_ns", "ns"),
    ("verify.explorer.self_ns_per_decision", "ns"),
    ("verify.explorer.runs", "count"),
    ("verify.explorer.decisions", "count"),
    ("verify.explorer.pruned_runs", "count"),
    ("verify.explorer.sleep_prunes", "count"),
    ("verify.explorer.fingerprint_hits", "count"),
    ("verify.explorer.fingerprint_states", "count"),
    ("verify.explorer.useful_ratio", "ratio"),
    ("verify.explorer.unattributed_share", "ratio"),
    ("sim.world.options_ns", "ns"),
    ("sim.world.apply_ns", "ns"),
    ("sim.world.fingerprint_ns", "ns"),
    ("sim.decisions_per_run", "count"),
    ("obs.profiler_overhead.threads", "ratio"),
    ("obs.profiler_overhead.actors", "ratio"),
    ("obs.profiler_overhead.coroutines", "ratio"),
    ("obs.tracing_overhead", "ratio"),
]

#: span names of the cluster message path, in ladder order; their self
#: times per message are what the reconciliation attributes
CLUSTER_LADDER = (
    "cluster.message.encode", "cluster.message.decode",
    "cluster.transport.send", "cluster.delivery.outbox_register",
    "cluster.delivery.outbox_on_ack", "cluster.delivery.outbox_due",
    "cluster.delivery.dedup_fresh", "cluster.delivery.credit_acquire",
    "cluster.delivery.credit_release", "actors.tell", "actors.handler",
)

def slow_dedup(tracer: Tracer, ns: int) -> None:
    """Bare-mode sensitivity check: ``ns`` of busy work added to every
    ``DedupTable.fresh`` call, recording nothing."""
    from repro.cluster.delivery import DedupTable
    tracer.inject(DedupTable, "fresh", ns)


def _message_key(message: Any) -> Any:
    """Benchmark messages are tuples ``(kind, id, ...)``; their first
    two fields name one message across a tell and its receive."""
    if type(message) is tuple and len(message) >= 2:
        return message[0], message[1]
    return None


def _payload_rid(env: Any) -> Any:
    payload = getattr(env, "payload", None)
    if type(payload) is tuple and len(payload) >= 2:
        return payload[1]
    return None


def install(tracer: Tracer, actor_classes: Iterable[type] = (),
            inject_ns: int = 0) -> None:
    """Wrap every layer's public callables (and the benchmark's own
    actors' ``receive``), with ``inject_ns`` of busy work added to
    every ``DedupTable.fresh`` call (the sensitivity check).  Undo with
    ``tracer.restore()``."""
    from repro.actors.ref import ActorRef
    from repro.cluster.delivery import CreditGate, DedupTable, Outbox
    from repro.cluster.message import PickleSerializer
    from repro.cluster.transport import LoopbackTransport
    from repro.core.scheduler import Scheduler
    from repro.coroutines.scheduler import CoChannel
    from repro.sim.world import SimWorld
    from repro.threads.collections import BlockingQueue
    import repro.verify.explorer as explorer

    marks = tracer.marks
    told = tracer.told
    wrap = tracer.wrap

    # threads / coroutines
    wrap(BlockingQueue, "put", "threads.put")
    wrap(BlockingQueue, "take", "threads.take")
    tracer.wrap_generator(CoChannel, "put", "coroutines.put")
    tracer.wrap_generator(CoChannel, "get", "coroutines.get")

    # actors: tell, and tell-return -> receive-entry per message
    def after_tell(args: tuple, _result: Any, _t0: int, t1: int) -> None:
        key = _message_key(args[1])
        if key is not None:
            told[key] = t1

    def after_receive(args: tuple, _result: Any, t0: int, _t1: int) -> None:
        key = _message_key(args[1])
        if key is not None:
            sent = told.pop(key, None)
            if sent is not None:
                marks["actors.dispatch_wait"].append((t0, t0 - sent))

    wrap(ActorRef, "tell", "actors.tell", after=after_tell)
    for cls in actor_classes:
        wrap(cls, "receive", "actors.handler",
             rid_of=lambda args, _r: _message_key(args[1]) and args[1][1],
             after=after_receive)

    # cluster.message
    def after_encode(_args: tuple, frame: Any, t0: int, _t1: int) -> None:
        if frame is not None:
            marks["cluster.message.bytes"].append((t0, len(frame)))

    wrap(PickleSerializer, "encode", "cluster.message.encode",
         rid_of=lambda args, _r: _payload_rid(args[1]), after=after_encode)
    wrap(PickleSerializer, "decode", "cluster.message.decode",
         rid_of=lambda _a, env: _payload_rid(env))

    # cluster.transport: send, and the receive callback it may run
    # synchronously (registered through the public ``start``)
    wrap(LoopbackTransport, "send", "cluster.transport.send")
    start = LoopbackTransport.__dict__["start"]

    def traced_start(self: Any, on_frame: Any) -> None:
        start(self, tracer.traced(on_frame, "cluster.node.on_frame"))
    traced_start.__wrapped__ = start
    tracer._replace(LoopbackTransport, "start", traced_start)

    # cluster.delivery
    wrap(Outbox, "register", "cluster.delivery.outbox_register",
         rid_of=lambda args, _r: _payload_rid(args[2]))
    wrap(Outbox, "on_ack", "cluster.delivery.outbox_on_ack")
    wrap(Outbox, "due", "cluster.delivery.outbox_due",
         after=lambda _a, due, t0, _t1: due and marks[
             "cluster.delivery.retransmits"].append((t0, len(due))))
    wrap(DedupTable, "fresh", "cluster.delivery.dedup_fresh",
         after=lambda _a, fresh, t0, _t1: fresh or marks[
             "cluster.delivery.duplicates"].append((t0, 1)),
         delay_ns=inject_ns)
    parks_seen: dict[int, int] = {}

    def after_acquire(args: tuple, _ok: Any, t0: int, t1: int) -> None:
        gate = args[0]
        parks = gate.total_parks
        if parks > parks_seen.get(id(gate), 0):
            parks_seen[id(gate)] = parks
            marks["cluster.delivery.credit_wait"].append((t0, t1 - t0))

    wrap(CreditGate, "acquire", "cluster.delivery.credit_acquire",
         after=after_acquire)
    wrap(CreditGate, "release", "cluster.delivery.credit_release")

    # core.scheduler / verify.explorer: one run index per explored run
    run_ids = itertools.count()
    wrap(explorer, "run_schedule", "verify.explorer.run_schedule",
         rid_of=lambda _a, _r: next(run_ids))

    def after_run(_args: tuple, trace: Any, t0: int, _t1: int) -> None:
        if trace is not None:
            marks["core.scheduler.steps"].append((t0, len(trace)))
    wrap(Scheduler, "run", "core.scheduler.run", after=after_run)

    # sim
    wrap(SimWorld, "options", "sim.world.options")
    wrap(SimWorld, "apply", "sim.world.apply")
    wrap(SimWorld, "fingerprint", "sim.world.fingerprint")


def mean_ns(layers: dict, name: str, which: str = "self_ns") -> float:
    agg = layers.get(name)
    if not agg or not agg["calls"]:
        return 0.0
    return agg[which] / agg["calls"]


def report_common(run: Any, tracer: Tracer, t_from: int, t_to: int) -> None:
    """Per-call layer costs every workload reports from its traced
    window (0 where the workload never called the layer)."""
    window = [(t_from, t_to)]
    layers = tracer.layer_times(window)
    per_call = [("threads.put_ns", "threads.put", "self_ns", 1.0),
           ("threads.take_wait_us", "threads.take", "total_ns", 1e-3),
           ("coroutines.put_ns", "coroutines.put", "total_ns", 1.0),
           ("coroutines.get_wait_us", "coroutines.get", "total_ns", 1e-3),
           ("actors.tell_ns", "actors.tell", "self_ns", 1.0),
           ("actors.handler_ns", "actors.handler", "self_ns", 1.0),
           ("cluster.message.encode_ns", "cluster.message.encode",
            "self_ns", 1.0),
           ("cluster.message.decode_ns", "cluster.message.decode",
            "self_ns", 1.0),
           ("cluster.transport.send_self_ns", "cluster.transport.send",
            "self_ns", 1.0),
           ("cluster.delivery.outbox_register_ns",
            "cluster.delivery.outbox_register", "self_ns", 1.0),
           ("cluster.delivery.outbox_on_ack_ns",
            "cluster.delivery.outbox_on_ack", "self_ns", 1.0),
           ("cluster.delivery.dedup_fresh_ns",
            "cluster.delivery.dedup_fresh", "self_ns", 1.0),
           ("cluster.delivery.credit_acquire_ns",
            "cluster.delivery.credit_acquire", "self_ns", 1.0),
           ("cluster.delivery.credit_release_ns",
            "cluster.delivery.credit_release", "self_ns", 1.0),
           ("sim.world.options_ns", "sim.world.options", "self_ns", 1.0),
           ("sim.world.apply_ns", "sim.world.apply", "self_ns", 1.0),
           ("sim.world.fingerprint_ns", "sim.world.fingerprint",
            "self_ns", 1.0)]
    for metric, span, which, scale in per_call:
        calls = layers.get(span, {}).get("calls", 0)
        run.metric(metric, mean_ns(layers, span, which) * scale,
                   dict(PER_LAYER)[metric], n=calls)
    n, waits = tracer.mark_sum("actors.dispatch_wait", window)
    run.metric("actors.dispatch_wait_us", waits / n / 1e3 if n else 0.0,
               "us", n=n)


def fill_missing(run: Any) -> None:
    """Every per-layer metric this workload does not exercise reads 0."""
    for name, unit in PER_LAYER:
        if name not in run.metrics:
            run.metric(name, 0.0, unit, n=0)
