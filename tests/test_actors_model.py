"""Actor model: threaded system, patterns, supervision, sim backend."""

import threading

import pytest

from repro.actors import (Actor, ActorSystem, Ask, RoundRobinRouter,
                          SupervisionDirective, aggregate, ask)


class Echo(Actor):
    def receive(self, message, sender):
        if isinstance(message, Ask):
            self.context.reply(("echo", message.payload))


class Collector(Actor):
    def __init__(self, sink, signal=None, expect=None):
        super().__init__()
        self.sink = sink
        self.signal = signal
        self.expect = expect

    def receive(self, message, sender):
        self.sink.append(message)
        if self.signal and self.expect and len(self.sink) >= self.expect:
            self.signal.set()


class TestActorSystem:
    def test_tell_processes_in_order_per_sender(self):
        sink, done = [], threading.Event()
        with ActorSystem(workers=2) as system:
            ref = system.spawn(Collector, sink, done, 10)
            for i in range(10):
                ref.tell(i)
            assert done.wait(timeout=10)
        assert sink == list(range(10))

    def test_ask_round_trip(self):
        with ActorSystem(workers=2) as system:
            echo = system.spawn(Echo, name="echo")
            assert ask(system, echo, "ping") == ("echo", "ping")

    def test_lshift_operator_sends(self):
        sink, done = [], threading.Event()
        with ActorSystem(workers=1) as system:
            ref = system.spawn(Collector, sink, done, 1)
            ref << "hello"
            assert done.wait(timeout=10)
        assert sink == ["hello"]

    def test_stop_routes_leftovers_to_dead_letters(self):
        with ActorSystem(workers=1) as system:
            sink = []
            ref = system.spawn(Collector, sink)
            system.stop(ref)
            system.drain(timeout=10)
            ref.tell("too late")
            system.drain(timeout=10)
            assert any(dl.message == "too late"
                       for dl in system.dead_letters)

    def test_actor_serialization_no_interleaved_handler(self):
        """Two handlers of the same actor never run concurrently."""
        overlaps = []

        class Probe(Actor):
            def __init__(self):
                super().__init__()
                self.inside = 0

            def receive(self, message, sender):
                self.inside += 1
                if self.inside > 1:
                    overlaps.append(message)
                import time
                time.sleep(0.0005)
                self.inside -= 1

        with ActorSystem(workers=4) as system:
            ref = system.spawn(Probe)
            for i in range(50):
                ref.tell(i)
            system.drain(timeout=20)
        assert overlaps == []

    def test_pre_start_runs_before_first_message(self):
        order = []
        done = threading.Event()

        class Starter(Actor):
            def pre_start(self):
                order.append("pre_start")

            def receive(self, message, sender):
                order.append(message)
                done.set()

        with ActorSystem(workers=1) as system:
            ref = system.spawn(Starter)
            ref.tell("first")
            assert done.wait(timeout=10)
        assert order == ["pre_start", "first"]

    def test_post_stop_hook(self):
        stopped = threading.Event()

        class Stopper(Actor):
            def receive(self, message, sender):
                pass

            def post_stop(self):
                stopped.set()

        with ActorSystem(workers=1) as system:
            ref = system.spawn(Stopper)
            system.stop(ref)
            assert stopped.wait(timeout=10)


class TestBehaviours:
    def test_become_unbecome_stack(self):
        sink, done = [], threading.Event()

        class Switch(Actor):
            def receive(self, message, sender):
                if message == "lock":
                    self.become(self.locked)
                else:
                    sink.append(("open", message))
                    self._maybe_done()

            def locked(self, message, sender):
                if message == "unlock":
                    self.unbecome()
                else:
                    sink.append(("locked", message))
                self._maybe_done()

            def _maybe_done(self):
                if len(sink) >= 3:
                    done.set()

        with ActorSystem(workers=1) as system:
            ref = system.spawn(Switch)
            for msg in ["a", "lock", "b", "unlock", "c"]:
                ref.tell(msg)
            assert done.wait(timeout=10)
        assert sink == [("open", "a"), ("locked", "b"), ("open", "c")]


class TestSupervision:
    class Fragile(Actor):
        def __init__(self, sink):
            super().__init__()
            self.sink = sink

        def receive(self, message, sender):
            if message == "boom":
                raise RuntimeError("actor crash")
            self.sink.append(message)

    def test_restart_keeps_actor_alive(self):
        sink = []
        with ActorSystem(workers=1,
                         directive=SupervisionDirective.RESTART) as system:
            ref = system.spawn(self.Fragile, sink)
            ref.tell("before")
            ref.tell("boom")
            ref.tell("after")
            system.drain(timeout=10)
            assert system.failures()
        assert sink == ["before", "after"]

    def test_stop_directive_kills_actor(self):
        sink = []
        with ActorSystem(workers=1,
                         directive=SupervisionDirective.STOP) as system:
            ref = system.spawn(self.Fragile, sink)
            ref.tell("boom")
            system.drain(timeout=10)
            ref.tell("after")
            system.drain(timeout=10)
            assert any(dl.message == "after" for dl in system.dead_letters)
        assert sink == []


class TestPatterns:
    def test_round_robin_router_spreads_load(self):
        sink_a, sink_b = [], []
        done = threading.Event()

        class Tagger(Actor):
            def __init__(self, sink):
                super().__init__()
                self.sink = sink

            def receive(self, message, sender):
                self.sink.append(message)
                if len(sink_a) + len(sink_b) >= 6:
                    done.set()

        with ActorSystem(workers=2) as system:
            a = system.spawn(Tagger, sink_a)
            b = system.spawn(Tagger, sink_b)
            router = system.spawn(RoundRobinRouter, [a, b])
            for i in range(6):
                router.tell(i)
            assert done.wait(timeout=10)
        assert len(sink_a) == 3 and len(sink_b) == 3

    def test_aggregate_collects_expected(self):
        collected = []
        done = threading.Event()

        def on_complete(items):
            collected.extend(items)
            done.set()

        with ActorSystem(workers=2) as system:
            agg = system.spawn(aggregate, 3, on_complete)
            for i in range(3):
                agg.tell(i)
            assert done.wait(timeout=10)
        assert sorted(collected) == [0, 1, 2]

    def test_ask_timeout(self):
        class Mute(Actor):
            def receive(self, message, sender):
                pass
        with ActorSystem(workers=1) as system:
            mute = system.spawn(Mute)
            with pytest.raises(TimeoutError):
                ask(system, mute, "anyone?", timeout=0.1)

    def test_ask_repeats_on_one_system(self):
        """Back-to-back asks, and an ask after a timed-out one, each get
        their own reply collector."""
        class Mute(Actor):
            def receive(self, message, sender):
                pass
        with ActorSystem(workers=2) as system:
            echo = system.spawn(Echo, name="echo")
            mute = system.spawn(Mute, name="mute")
            assert ask(system, echo, 1) == ("echo", 1)
            assert ask(system, echo, 2) == ("echo", 2)
            with pytest.raises(TimeoutError):
                ask(system, mute, "anyone?", timeout=0.05)
            assert ask(system, echo, 3) == ("echo", 3)
            assert system.failures() == []
            assert system.drain(timeout=5)
            assert system.actor_count == 2    # every collector stopped

    def test_concurrent_asks_from_two_threads(self):
        with ActorSystem(workers=2) as system:
            echo = system.spawn(Echo, name="echo")
            replies, errors = {}, []

            def asker(tag):
                try:
                    replies[tag] = [ask(system, echo, (tag, i))
                                    for i in range(20)]
                except Exception as exc:   # pragma: no cover - failure path
                    errors.append(exc)
            threads = [threading.Thread(target=asker, args=(t,))
                       for t in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert errors == []
        for tag in ("a", "b"):
            assert replies[tag] == [("echo", (tag, i)) for i in range(20)]


class TestSimActors:
    def test_all_message_orders_enumerable(self):
        from repro.actors import SimActorSystem
        from repro.verify import explore

        class Logger(Actor):
            def __init__(self, log):
                super().__init__()
                self.log = log

            def receive(self, message, sender):
                self.log.append(message)

        def program(sched):
            log = []
            system = SimActorSystem(sched)

            def driver():
                ref = system.spawn(Logger, log, name="logger")
                yield from system.tell_gen(ref, "x")
                yield from system.tell_gen(ref, "y")
            sched.spawn(driver, name="driver")
            return lambda: tuple(log)
        res = explore(program)
        assert res.complete
        assert res.observations() == {("x", "y"), ("y", "x")}

    def test_sim_ask_round_trip(self):
        from repro.actors import SimActorSystem
        from repro.core import Emit, Scheduler

        class Doubler(Actor):
            def receive(self, message, sender):
                sender.tell(message * 2)

        s = Scheduler()
        system = SimActorSystem(s)

        def driver():
            ref = system.spawn(Doubler, name="doubler")
            reply = yield from system.ask_gen(ref, 21)
            yield Emit(reply)
        s.spawn(driver, name="driver")
        assert s.run().output == [42]

    def test_sim_actor_spawning_actor(self):
        from repro.actors import SimActorSystem
        from repro.core import Scheduler

        log = []

        class Child(Actor):
            def receive(self, message, sender):
                log.append(("child", message))

        class Parent(Actor):
            def receive(self, message, sender):
                child = self.context.spawn(Child, name="child")
                child.tell("delegated")

        s = Scheduler()
        system = SimActorSystem(s)

        def driver():
            parent = system.spawn(Parent, name="parent")
            yield from system.tell_gen(parent, "go")
        s.spawn(driver, name="driver")
        s.run()
        assert log == [("child", "delegated")]

    def test_sim_stop_gen(self):
        from repro.actors import SimActorSystem
        from repro.core import Scheduler

        stopped = []

        class Stoppable(Actor):
            def post_stop(self):
                stopped.append(True)

            def receive(self, message, sender):
                pass

        s = Scheduler()
        system = SimActorSystem(s)

        def driver():
            ref = system.spawn(Stoppable, name="victim")
            yield from system.stop_gen(ref)
        s.spawn(driver, name="driver")
        s.run()
        assert stopped == [True]

    def test_sim_tell_outside_handler_rejected(self):
        from repro.actors import SimActorSystem
        from repro.core import Scheduler

        s = Scheduler()
        system = SimActorSystem(s)
        ref = system.spawn(Echo, name="echo")
        with pytest.raises(RuntimeError, match="tell_gen"):
            ref.tell("naked tell")
