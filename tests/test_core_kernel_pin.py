"""Exact kernel behaviour, pinned by digest.

The kernel's step loop, vector clocks, reduction metadata and state
fingerprints are what every explorer verdict is computed from, so their
*exact* behaviour is pinned here rather than only their consequences.
For each program below, the first ``RUNS`` schedules of a naive
depth-first enumeration are replayed with ``record_enabled=True`` (the
explorer's mode), followed by ``RANDOM_RUNS`` seeded random schedules
(a depth-first prefix of the bridge never preempts a car on the bridge,
so only the random runs reach its WAITs and the barging collision).
Every :class:`~repro.core.trace.TraceEvent` field is digested, together
with each run's output, outcome and observation.

Identities that are process-global rather than replay-stable are
normalised first: task ids become spawn-order indices (both in
``task_tid`` and as vector-clock keys) and envelope sequence numbers
are renumbered by first occurrence within the run.

Fingerprints are pinned by *equality class*, not by value: each step's
``Scheduler.fingerprint()`` is numbered by its first occurrence across
all the program's runs.  The representation of a fingerprint is free to
change; which states it calls equal is not.
"""

import dataclasses
import hashlib
import re

import pytest

from repro.core import (Acquire, Choice, Emit, Join, Mailbox, RandomPolicy,
                        Receive, Release, Scheduler, Send, SimLock, Sleep,
                        Spawn)
from repro.core.effects import Access, AccessKind
from repro.core.trace import TraceEvent
from repro.problems.bug_gallery import gallery
from repro.problems.single_lane_bridge import bridge_program
from repro.verify import explorer

RUNS = 300
RANDOM_RUNS = 100


def _mixed_program(sched):
    """Sleep, Spawn, Join, Choice, Access, a lock and a mailbox in one
    program — the kernel paths the bridges and the mailbox program do
    not reach."""
    lock = SimLock("L")
    box = Mailbox("box")
    shared = {"x": 0}

    def child(tag):
        yield Access("x", AccessKind.WRITE)
        shared["x"] += 1
        yield Sleep(2)
        yield Send(box, tag)
        return tag

    def parent():
        pick = yield Choice(("left", "right"))
        kid = yield Spawn(child(pick), name="kid")
        yield Acquire(lock)
        yield Emit(pick)
        yield Release(lock)
        got = yield Join(kid)
        yield Emit(got)

    def listener():
        msg = yield Receive(box)
        yield Acquire(lock)
        yield Emit(msg)
        yield Release(lock)

    sched.spawn(parent, name="parent")
    sched.spawn(listener, name="listener")
    sched.fingerprint_extra = lambda: shared["x"]
    return lambda: shared["x"]


def _emitters_program(sched):
    """Two tasks that only emit: their states differ in output alone."""
    def emitter(tag):
        for k in range(2):
            yield Emit(f"{tag}{k}")

    sched.spawn(emitter, "a", name="a")
    sched.spawn(emitter, "b", name="b")


def _rmw_program(sched):
    spec = next(s for s in gallery() if s.bug_id == "interleave-rmw")
    return spec.buggy(sched)


PROGRAMS = {
    "bridge": bridge_program(),
    "bridge-barging": bridge_program(guard="if"),
    "mailbox-rmw": _rmw_program,
    "mixed": _mixed_program,
    "emitters": _emitters_program,
}

#: recorded on the kernel before the explorer/kernel speed-up; any
#: change in what a step records or which states compare equal moves it
EXPECTED = {
    "bridge": ("b523a826dc9c0701c607504b5dbc1a33"
               "2a2fcc3b8251cfc2528c69c58959e806", 400, 878),
    "bridge-barging": ("5cf122d223fd9452371300eb9e971f8a"
                       "e6a2782d6bf678a3d7b2b2f4ae711747", 400, 856),
    "mailbox-rmw": ("1f7aaeecc6922b7d3882bf428abe8a6d"
                    "e25d7df005a3f694571c2df9207da175", 400, 288),
    "mixed": ("77f965c48f47a112dacc4d801e40d81e"
              "37c9d3dad9b85554f006804e726a2e6a", 400, 326),
    "emitters": ("77c9de390b2c877a9d511247d0a0e66c"
                 "6ab1274feaebffe1d6e6917c0ae89c11", 120, 44),
}

_SEQ_IN_REPR = re.compile(r"#(\d+)")


def _run_rows(sched, trace, obs, fp_classes) -> bytes:
    """One run's replay-stable record: every TraceEvent field, then the
    outcome, output, observation and per-step fingerprint classes."""
    ltid = {t.tid: i for i, t in enumerate(sched.tasks)}
    seqs: dict = {}

    def seq(n):
        return None if n is None else seqs.setdefault(n, len(seqs))

    def norm_repr(text):
        if text is None:
            return None
        return _SEQ_IN_REPR.sub(lambda m: f"#s{seq(int(m.group(1)))}", text)

    normalise = {
        "task_tid": lambda v: ltid[v],
        "vclock": lambda v: None if v is None else sorted(
            (ltid[k], n) for k, n in v.components()),
        "access_kind": lambda v: None if v is None else v.name,
        "footprint": lambda v: None if v is None else sorted(map(repr, v)),
        "payload_repr": norm_repr,
        "effect_repr": norm_repr,
        "msg_seq": seq,
        "recv_seq": seq,
    }
    names = [f.name for f in dataclasses.fields(TraceEvent)]
    rows = [tuple(normalise.get(n, lambda v: v)(getattr(e, n))
                  for n in names) for e in trace.events]
    rows.append((trace.outcome, trace.detail,
                 [repr(v) for v in trace.output], repr(obs), fp_classes))
    return repr(rows).encode()


def _digest(program) -> tuple[str, int, int]:
    """(hex digest, runs replayed, fingerprint classes) of ``program``'s
    first ``RUNS`` naive-DFS schedules and ``RANDOM_RUNS`` random ones."""
    h = hashlib.sha256()
    classes: dict = {}
    runs = 0

    def hook_into(seen: dict, fp_classes: list):
        def hook(sched):
            seen["sched"] = sched
            fp_classes.append(
                classes.setdefault(sched.fingerprint(), len(classes)))
            return True
        return hook

    prefix: list[int] = []
    for _ in range(RUNS):
        seen: dict = {}
        fp_classes: list[int] = []
        trace, obs = explorer.run_schedule(
            program, prefix, record_enabled=True,
            step_hook=hook_into(seen, fp_classes))
        h.update(_run_rows(seen["sched"], trace, obs, fp_classes))
        runs += 1
        decisions = trace.decisions()
        d = len(decisions) - 1
        while d >= 0 and decisions[d][0] + 1 >= decisions[d][1]:
            d -= 1
        if d < 0:
            break
        prefix = [idx for idx, _ in decisions[:d]] + [decisions[d][0] + 1]

    for seed in range(RANDOM_RUNS):
        seen = {}
        fp_classes = []
        sched = Scheduler(RandomPolicy(seed), raise_on_deadlock=False,
                          raise_on_failure=False, record_enabled=True,
                          step_hook=hook_into(seen, fp_classes))
        observe = program(sched)
        trace = sched.run()
        obs = observe() if observe is not None else None
        h.update(_run_rows(sched, trace, obs, fp_classes))
        runs += 1
    return h.hexdigest(), runs, len(classes)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kernel_replay_digest(name):
    assert _digest(PROGRAMS[name]) == EXPECTED[name]
