"""Kernel micro-benchmarks — the substrate's own cost profile.

Not a paper table; included because every paper number above is
computed *through* this kernel, so its throughput bounds what the
exhaustive checks can afford (the guides' rule: no optimization claims
without measurement).  Asserted shapes: scheduling is strictly
replayable, and the explorer's cost scales with schedules × depth.

Two rungs measure the explorer's share of the kernel on the paper-scale
bridge: a step recorded with ``record_enabled=True`` (footprints and
enabled-set summaries, the mode every reduced exploration runs in) and
one ``Scheduler.fingerprint`` (the state-deduplication key).  Both
assert shapes only; neither gates on time.
"""

from repro.core import (Acquire, Emit, FixedPolicy, Mailbox, Pause,
                        RandomPolicy, Receive, Release, Scheduler, Send,
                        SimLock)
from repro.problems.single_lane_bridge import bridge_program
from repro.verify import explore
from repro.verify.explorer import run_schedule


def test_scheduler_step_throughput(benchmark):
    """Raw steps/second: one task, many pauses."""
    def run():
        sched = Scheduler()

        def spinner():
            for _ in range(5_000):
                yield Pause()
        sched.spawn(spinner)
        return len(sched.run())
    steps = benchmark(run)
    assert steps == 5_001


def test_lock_handoff_throughput(benchmark):
    """Contended acquire/release ping-pong between two tasks."""
    def run():
        sched = Scheduler()
        lock = SimLock("L")

        def worker(tag):
            for _ in range(1_000):
                yield Acquire(lock)
                yield Release(lock)
        sched.spawn(worker, "a")
        sched.spawn(worker, "b")
        return len(sched.run())
    assert benchmark(run) > 4_000


def test_message_throughput(benchmark):
    """Send/receive round trips through a kernel mailbox."""
    def run():
        sched = Scheduler(RandomPolicy(1))
        box = Mailbox("box")

        def producer():
            for i in range(1_000):
                yield Send(box, i)

        def consumer():
            for _ in range(1_000):
                yield Receive(box)
        sched.spawn(producer)
        sched.spawn(consumer)
        return len(sched.run())
    assert benchmark(run) > 2_000


def test_exploration_cost_scales_with_leaves(benchmark):
    """explore() on a 2-task emitter: cost ∝ schedules; exactness held."""
    def program(sched):
        def t(tag):
            for k in range(2):
                yield Emit((tag, k))
        sched.spawn(t, "a")
        sched.spawn(t, "b")

    res = benchmark(lambda: explore(program))
    assert res.complete
    assert len(res.output_strings()) == 6   # C(4,2) orders


def _bridge_schedules(n: int = 20) -> list[list[int]]:
    """Decision sequences of ``n`` seeded random runs of the 3-car bridge."""
    program = bridge_program()
    out = []
    for seed in range(n):
        sched = Scheduler(RandomPolicy(seed))
        program(sched)
        out.append(sched.run().schedule())
    return out


def test_recorded_step_throughput(benchmark):
    """Replay bridge schedules with ``record_enabled=True``: the cost of
    a step as the reduced explorer pays it."""
    program = bridge_program()
    schedules = _bridge_schedules()

    def run():
        return [run_schedule(program, s, record_enabled=True)[0]
                for s in schedules]
    traces = benchmark(run)
    for schedule, trace in zip(schedules, traces):
        assert trace.schedule() == schedule        # exact replay
        assert trace.outcome == "done"
        assert all(e.footprint is not None and e.enabled is not None
                   and e.task_ltid >= 0 for e in trace.events)


def test_fingerprint_cost(benchmark):
    """``Scheduler.fingerprint`` on the paper bridge, mid-run (half the
    steps of a random schedule taken)."""
    program = bridge_program()
    schedule = _bridge_schedules(1)[0]

    def mid_run() -> Scheduler:
        sched = Scheduler(FixedPolicy(schedule), record_enabled=True)
        program(sched)
        for _ in range(len(schedule) // 2):
            sched.step()
        return sched
    sched = mid_run()
    fp = benchmark(sched.fingerprint)
    hash(fp)
    assert fp == sched.fingerprint() == mid_run().fingerprint()
    tasks_part, objects_part, output_part, _ = fp
    assert len(tasks_part) == 3 and len(objects_part) == 1
    assert len(output_part) == len(sched.trace.output) > 0
