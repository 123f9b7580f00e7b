"""Supervision & dead-letter matrix for both actor-cell drivers.

Each directive's observable contract, pinned down:

* RESUME — the crashing message is dropped but the mailbox survives:
  everything behind the poison message is still processed by the SAME
  instance (state intact).
* RESTART — ``pre_restart`` runs exactly once per failure and the
  instance keeps serving (this runtime restarts in place).
* STOP — the actor is torn down; anything still queued and anything
  sent afterwards lands in dead letters, never half-processed.

Plus the bookkeeping around them: the ``failures()`` snapshot
accessor, per-actor directive overrides at ``spawn`` time and via
``set_directive``, and ``drain(timeout=)`` returning False when a
livelocked actor keeps the system permanently busy.

Every contract takes its system from the ``driver`` fixture: the
module-level tests run the threaded :class:`ActorSystem`, and
:class:`TestInlineDriver` re-runs every module-level test that takes
``driver`` on the simulation's :class:`InlineActorSystem`, pumped by
``drain()`` — a new contract test joins both drivers just by taking
the fixture.  Both drive the same cell, so the differential matrix
asserts they agree message for message.
"""

import inspect
import threading

import pytest

from repro.actors import Actor, ActorSystem, SupervisionDirective
from repro.sim import InlineActorSystem


class Crashy(Actor):
    """Counts messages; raises on the payload ``"boom"``."""

    def __init__(self, log):
        super().__init__()
        self.log = log
        self.restarts = 0

    def receive(self, msg, sender):
        if msg == "boom":
            raise RuntimeError("boom")
        self.log.append(msg)

    def pre_restart(self, error, message):
        self.restarts += 1


class FailsToStart(Crashy):
    """Crashy whose ``pre_start`` raises."""

    def pre_start(self):
        raise RuntimeError("no start")


class SelfFeeder(Actor):
    """Livelock: every message enqueues the next one."""

    def receive(self, msg, sender):
        self.self_ref.tell(msg + 1)


def _threaded(directive=SupervisionDirective.RESTART):
    return ActorSystem(workers=2, directive=directive)


def _inline(directive=SupervisionDirective.RESTART):
    return InlineActorSystem(directive=directive)


DRIVERS = {"threaded": _threaded, "inline": _inline}


@pytest.fixture
def driver():
    """Factory ``driver(directive)`` for the system under test."""
    return _threaded


def test_resume_keeps_mailbox_and_state(driver):
    log = []
    with driver() as sys_:
        ref = sys_.spawn(Crashy, log, name="c",
                         directive=SupervisionDirective.RESUME)
        for m in [1, "boom", 2, "boom", 3]:
            ref.tell(m)
        assert sys_.drain(timeout=5)
        assert log == [1, 2, 3]          # poison dropped, rest delivered
        # RESUME never constructs a new instance
        assert ref._cell.actor.restarts == 0
        assert [n for n, _ in sys_.failures()] == ["c", "c"]


def test_restart_runs_pre_restart_once_per_failure(driver):
    log = []
    with driver(SupervisionDirective.RESTART) as sys_:
        ref = sys_.spawn(Crashy, log, name="c")
        for m in [1, "boom", 2, "boom", 3]:
            ref.tell(m)
        assert sys_.drain(timeout=5)
        assert log == [1, 2, 3]
        assert ref._cell.actor.restarts == 2


def test_stop_dead_letters_late_sends(driver):
    log = []
    with driver() as sys_:
        ref = sys_.spawn(Crashy, log, name="c",
                         directive=SupervisionDirective.STOP)
        ref.tell("boom")
        assert sys_.drain(timeout=5)
        assert ref.is_stopped
        ref.tell("late")                  # after the stop: dead letter
        assert sys_.drain(timeout=5)
        assert "late" not in log
        dead = [d.message for d in sys_.dead_letters]
        assert "late" in dead


def test_per_actor_directive_overrides_system_default(driver):
    """One STOP actor among RESTART siblings: only it goes down."""
    stop_log, restart_log = [], []
    with driver(SupervisionDirective.RESTART) as sys_:
        stopper = sys_.spawn(Crashy, stop_log, name="stopper",
                             directive=SupervisionDirective.STOP)
        restarter = sys_.spawn(Crashy, restart_log, name="restarter")
        stopper.tell("boom")
        restarter.tell("boom")
        assert sys_.drain(timeout=5)
        assert stopper.is_stopped
        assert not restarter.is_stopped
        restarter.tell("alive")
        assert sys_.drain(timeout=5)
        assert restart_log == ["alive"]


def test_set_directive_changes_future_failures(driver):
    log = []
    with driver(SupervisionDirective.RESUME) as sys_:
        ref = sys_.spawn(Crashy, log, name="c")
        ref.tell("boom")
        assert sys_.drain(timeout=5)
        assert not ref.is_stopped
        sys_.set_directive(ref, SupervisionDirective.STOP)
        ref.tell("boom")
        assert sys_.drain(timeout=5)
        assert ref.is_stopped


def test_failures_returns_snapshot_copy(driver):
    with driver(SupervisionDirective.RESUME) as sys_:
        ref = sys_.spawn(Crashy, [], name="c")
        ref.tell("boom")
        assert sys_.drain(timeout=5)
        snap = sys_.failures()
        assert len(snap) == 1
        name, error = snap[0]
        assert name == "c" and isinstance(error, RuntimeError)
        snap.append(("fake", ValueError()))       # copy, not the log
        assert len(sys_.failures()) == 1


def test_drain_times_out_on_livelock():
    """Threaded only: the inline driver pumps instead of waiting."""
    sys_ = ActorSystem(workers=2)
    try:
        ref = sys_.spawn(SelfFeeder, name="feeder")
        ref.tell(0)
        assert sys_.drain(timeout=0.3) is False
    finally:
        sys_.stop(ref)                   # stop signal breaks the cycle
        sys_.shutdown()


def test_spawn_rejects_non_actor(driver):
    with driver() as sys_:
        with pytest.raises(TypeError):
            sys_.spawn(threading.Thread)


def test_spawn_rejects_live_duplicate_name(driver):
    """A name is taken while its actor lives, and free once it stops."""
    log = []
    with driver() as sys_:
        first = sys_.spawn(Crashy, log, name="c")
        with pytest.raises(ValueError):
            sys_.spawn(Crashy, log, name="c")
        assert sys_.actor_count == 1
        sys_.stop(first)
        assert sys_.drain(timeout=5)
        second = sys_.spawn(Crashy, log, name="c")
        second.tell("again")
        assert sys_.drain(timeout=5)
        assert log == ["again"]
        assert sys_.actor_count == 1


# ---------------------------------------------------------------------------
# differential matrix: both drivers, same inputs, same observations
# ---------------------------------------------------------------------------

STOP_PILL = object()    # script entry: ``system.stop(ref)`` at this point

#: name -> (directive, actor class, script, expected observation)
INPUTS = {
    "resume": (SupervisionDirective.RESUME, Crashy,
               [1, "boom", 2, "boom", 3],
               ([1, 2, 3], [], ["c", "c"],
                [("c", RuntimeError, SupervisionDirective.RESUME)] * 2)),
    "restart": (SupervisionDirective.RESTART, Crashy,
                [1, "boom", 2],
                ([1, 2], [], ["c"],
                 [("c", RuntimeError, SupervisionDirective.RESTART)])),
    "stop": (SupervisionDirective.STOP, Crashy,
             [1, "boom", 2, 3],
             ([1], [2, 3], ["c"],
              [("c", RuntimeError, SupervisionDirective.STOP)])),
    "stop_in_pre_start": (SupervisionDirective.STOP, FailsToStart,
                          [1, 2],
                          ([], [1, 2], ["c"],
                           [("c", RuntimeError,
                             SupervisionDirective.STOP)])),
    "resume_in_pre_start": (SupervisionDirective.RESUME, FailsToStart,
                            [1, 2],
                            ([1, 2], [], ["c"],
                             [("c", RuntimeError,
                               SupervisionDirective.RESUME)])),
    "stop_pill_with_mail_behind": (SupervisionDirective.RESTART, Crashy,
                                   [1, STOP_PILL, 2, 3],
                                   ([1], [2, 3], [], [])),
}


def _observe(make, directive, actor_class, script):
    """Run ``script`` against one actor; return (delivery log,
    dead-letter messages, failure names, listener tuples).

    The actor's ``pre_start`` waits until the whole script is queued,
    so a threaded worker sees the same mailbox the inline driver does
    instead of racing the sends."""
    log, heard = [], []
    queued = threading.Event()

    class Gated(actor_class):
        def pre_start(self):
            queued.wait(5)
            super().pre_start()

    with make(directive) as sys_:
        sys_.failure_listener = \
            lambda name, error, applied: heard.append(
                (name, type(error), applied))
        ref = sys_.spawn(Gated, log, name="c")
        for message in script:
            if message is STOP_PILL:
                sys_.stop(ref)
            else:
                ref.tell(message)
        queued.set()
        assert sys_.drain(timeout=5)
        return (log, [d.message for d in sys_.dead_letters],
                [name for name, _ in sys_.failures()], heard)


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_drivers_agree(case):
    directive, actor_class, script, expected = INPUTS[case]
    seen = {name: _observe(make, directive, actor_class, script)
            for name, make in DRIVERS.items()}
    assert seen["threaded"] == seen["inline"]
    assert seen["inline"] == expected


class TestInlineDriver:
    """Every module-level test that takes ``driver``, on the inline
    driver (collected below, so the threaded test ids stay as they
    are)."""

    @pytest.fixture
    def driver(self):
        return _inline


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and \
            "driver" in inspect.signature(_test).parameters:
        setattr(TestInlineDriver, _name, staticmethod(_test))
