"""Trace rendering, error types, task bookkeeping, values formatting."""

import inspect
from dataclasses import (MISSING, FrozenInstanceError, asdict, fields,
                         replace)

import pytest

from repro.core import (DeadlockError, Emit, Pause, RandomPolicy, Scheduler,
                        SimLock, Task, TaskState)
from repro.core.policy import Transition
from repro.core.trace import TraceEvent


class TestTrace:
    def _trace(self):
        sched = Scheduler(RandomPolicy(3))

        def worker(tag):
            for i in range(2):
                yield Emit((tag, i))
        sched.spawn(worker, "a", name="a")
        sched.spawn(worker, "b", name="b")
        return sched.run()

    def test_render_contains_tasks_and_outcome(self):
        text = self._trace().render()
        assert "a" in text and "b" in text
        assert "outcome: done" in text
        assert "output:" in text

    def test_render_last_n(self):
        trace = self._trace()
        short = trace.render(last=2)
        assert len(short.splitlines()) <= 4

    def test_steps_by_task(self):
        trace = self._trace()
        counts = trace.steps_by_task()
        assert counts["a"] == counts["b"] == 3   # 2 emits + final resume

    def test_events_for_filters(self):
        trace = self._trace()
        assert all(e.task_name == "a" for e in trace.events_for("a"))

    def test_event_describe(self):
        trace = self._trace()
        line = trace.events[0].describe()
        assert "#" in line and "/" in line

    def test_schedule_and_decisions_align(self):
        trace = self._trace()
        assert len(trace.schedule()) == len(trace.decisions()) == len(trace)


class TestHandWrittenInits:
    """TraceEvent and Transition write their ``__init__`` out for speed;
    it must keep the dataclass contract the generated one had."""

    @pytest.mark.parametrize("cls", [TraceEvent, Transition])
    def test_init_matches_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING
             else f.default) for f in fields(cls)]

    def test_replace_asdict_eq_hash_and_frozen(self):
        ev = TraceEvent(1, 7, "a", "run", "pause", 0, 2, task_ltid=0,
                        footprint=frozenset({("out", 0, "w")}))
        moved = replace(ev, step=2)
        assert moved.step == 2 and moved.task_name == "a"
        assert replace(moved, step=1) == ev
        assert hash(replace(moved, step=1)) == hash(ev)
        assert asdict(ev)["footprint"] == frozenset({("out", 0, "w")})
        assert repr(ev).startswith("TraceEvent(step=1, task_tid=7,")
        with pytest.raises(FrozenInstanceError):
            ev.step = 3
        tr = Transition(None, "choice", "x")
        assert tr == Transition(None, "choice", "x", -1, None)
        assert replace(tr, payload="y").payload == "y"


class TestDeadlockError:
    def test_message_lists_blockers(self):
        err = DeadlockError([("t1", "acquire L"), ("t2", "wait M")])
        assert "t1: acquire L" in str(err)
        assert err.blocked == [("t1", "acquire L"), ("t2", "wait M")]


class TestTask:
    def test_rejects_non_generator(self):
        with pytest.raises(TypeError, match="generator"):
            Task(lambda: None)

    def test_describe_block_defaults_to_state(self):
        def g():
            yield Pause()
        task = Task(g())
        assert task.describe_block() == "ready"

    def test_finished_flags(self):
        def g():
            yield Pause()
        task = Task(g())
        assert not task.finished and task.runnable
        task.state = TaskState.DONE
        assert task.finished and not task.runnable


class TestLockIntrospection:
    def test_owner_name_and_repr(self):
        from repro.core import Acquire, Release, run_tasks
        lock = SimLock("mine")
        seen = {}

        def worker():
            yield Acquire(lock)
            seen["owner"] = lock.owner_name()
            seen["repr"] = repr(lock)
            yield Release(lock)
        run_tasks(worker)
        assert seen["owner"] == "worker"
        assert "mine" in seen["repr"]
        assert lock.owner_name() is None


class TestPseudocodeValues:
    def test_format_value_booleans(self):
        from repro.pseudocode import format_value
        assert format_value(True) == "True"
        assert format_value(False) == "False"

    def test_format_value_numbers(self):
        from repro.pseudocode import format_value
        assert format_value(3) == "3"
        assert format_value(3.5) == "3.5"

    def test_message_value_repr_and_equality(self):
        from repro.pseudocode import MessageValue
        m1 = MessageValue("h", ("hello",))
        m2 = MessageValue("h", ("hello",))
        assert m1 == m2
        assert repr(m1) == "MESSAGE.h('hello')"

    def test_instance_identity(self):
        from repro.pseudocode import parse
        from repro.pseudocode.values import Instance
        program = parse("CLASS Box\nENDCLASS")
        a = Instance(program.classes["Box"])
        b = Instance(program.classes["Box"])
        assert a != b
        assert a.class_name == "Box"
        assert a.mailbox is not b.mailbox


class TestAnalysisDetails:
    def test_empty_footprint_warning(self):
        from repro.pseudocode import compile_program
        runtime = compile_program("""
DEFINE selfish()
  EXC_ACC
    local = 1
  END_EXC_ACC
ENDDEF
""")
        assert runtime.info.warnings
        assert any("references no" in w for w in runtime.info.warnings)

    def test_transitive_group_merge(self):
        """x~y via block1, y~z via block2 → one group {x,y,z}."""
        from repro.pseudocode import compile_program
        runtime = compile_program("""
x = 0
y = 0
z = 0
DEFINE f()
  EXC_ACC
    x = y
  END_EXC_ACC
ENDDEF
DEFINE g()
  EXC_ACC
    y = z
  END_EXC_ACC
ENDDEF
""")
        assert list(runtime.info.groups.values()) and \
            ("x", "y", "z") in runtime.info.groups.values()

    def test_receive_methods_recorded(self):
        from repro.pseudocode import compile_program
        runtime = compile_program("""
CLASS R
  DEFINE loop()
    ON_RECEIVING
      MESSAGE.m(v)
        PRINT v
  ENDDEF
ENDCLASS
""")
        assert "loop" in runtime.info.receive_methods

    def test_params_excluded_from_footprint(self):
        from repro.pseudocode import compile_program
        runtime = compile_program("""
x = 0
DEFINE f(x)
  EXC_ACC
    x = x + 1
  END_EXC_ACC
ENDDEF
""")
        # the parameter shadows the global: footprint is empty
        block = runtime.info.exc_blocks[0]
        assert "x" not in block.footprint
