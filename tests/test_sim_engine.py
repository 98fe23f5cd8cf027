"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import TIME_EPSILON, Engine
from repro.sim.events import SimEvent, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_callbacks_run_in_time_order(self):
        engine = Engine()
        seen = []
        engine.schedule(2.0, lambda: seen.append("late"))
        engine.schedule(1.0, lambda: seen.append("early"))
        engine.run()
        assert seen == ["early", "late"]
        assert engine.now == 2.0

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-0.1, lambda: None)

    def test_nan_delay_raises(self):
        """A NaN time compares false both ways and would corrupt heap order."""
        engine = Engine()
        with pytest.raises(SimulationError, match="nan"):
            engine.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            engine.schedule_at(float("nan"), lambda: None)
        assert engine.peak_queue_depth == 0

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(3.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.0]

    def test_cancelled_timer_does_not_fire(self):
        engine = Engine()
        seen = []
        timer = engine.schedule(1.0, lambda: seen.append("x"))
        timer.cancel()
        engine.run()
        assert seen == []

    def test_peak_queue_depth_tracked(self):
        engine = Engine()
        assert engine.peak_queue_depth == 0
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.peak_queue_depth == 5
        engine.run()
        # The high-water mark persists after the queue drains.
        assert engine.peak_queue_depth == 5

    def test_cancel_is_idempotent(self):
        timer = Engine().schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert timer.cancelled

    def test_run_until_stops_clock_exactly(self):
        engine = Engine()
        engine.schedule(10.0, lambda: None)
        engine.run(until=4.0)
        assert engine.now == 4.0
        # The remaining event still fires afterwards.
        engine.run()
        assert engine.now == 10.0

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []
        engine.schedule(
            1.0, lambda: engine.schedule(1.0, lambda: seen.append(engine.now))
        )
        engine.run()
        assert seen == [2.0]

    def test_determinism_across_runs(self):
        def build():
            engine = Engine()
            order = []
            for i, d in enumerate((3.0, 1.0, 2.0, 1.0)):
                engine.schedule(d, lambda i=i: order.append(i))
            engine.run()
            return order

        assert build() == build()


class TestProcessesViaEngine:
    def test_spawn_runs_generator(self):
        engine = Engine()
        seen = []

        def body():
            yield Timeout(1.0)
            seen.append(engine.now)
            yield 0.5
            seen.append(engine.now)

        engine.spawn(body(), name="p")
        engine.run()
        assert seen == [1.0, 1.5]

    def test_spawn_delay(self):
        engine = Engine()
        seen = []

        def body():
            seen.append(engine.now)
            yield 0.0

        engine.spawn(body(), name="p", delay=2.0)
        engine.run()
        assert seen == [2.0]

    def test_deadlock_detection(self):
        engine = Engine()

        def blocked():
            yield SimEvent("never")

        engine.spawn(blocked(), name="blocked")
        with pytest.raises(DeadlockError, match="blocked"):
            engine.run()

    def test_deadlock_check_disabled(self):
        engine = Engine()

        def blocked():
            yield SimEvent("never")

        engine.spawn(blocked(), name="blocked")
        engine.run(check_deadlock=False)  # no exception

    def test_timeout_event_helper(self):
        engine = Engine()
        event = engine.timeout_event(1.5, value="done")
        engine.run(check_deadlock=False)
        assert event.value == "done"

    def test_alive_processes(self):
        engine = Engine()

        def body():
            yield 1.0

        process = engine.spawn(body(), name="p")
        assert not process.alive  # not yet started
        engine.step()  # start
        assert process.alive
        engine.run()
        assert not process.alive


class TestCancelledSkipAccounting:
    """The single-pop dispatch path counts skipped timers exactly once.

    ``step()`` and ``run()`` share ``_dispatch``, so the
    ``timers_cancelled_skipped`` total must be identical however the two
    are interleaved — this is the regression guard for the old double
    heap-inspection loop, which could count (or miss) a cancelled head
    depending on which entry point observed it.
    """

    def build(self):
        engine = Engine()
        seen = []
        timers = [
            engine.schedule(float(i + 1), lambda i=i: seen.append(i))
            for i in range(6)
        ]
        for i in (0, 2, 4):
            timers[i].cancel()
        return engine, seen

    def test_run_counts_all_skips(self):
        engine, seen = self.build()
        engine.run()
        assert seen == [1, 3, 5]
        assert engine.timers_cancelled_skipped == 3
        assert engine.events_executed == 3

    def test_step_matches_run_accounting(self):
        engine, seen = self.build()
        steps = 0
        while engine.step():
            steps += 1
        assert steps == 3
        assert seen == [1, 3, 5]
        assert engine.timers_cancelled_skipped == 3
        assert engine.events_executed == 3

    def test_mixed_step_then_run_accounting(self):
        engine, seen = self.build()
        assert engine.step()
        engine.run()
        assert seen == [1, 3, 5]
        assert engine.timers_cancelled_skipped == 3
        assert engine.events_executed == 3

    def test_cancel_after_pop_window(self):
        engine = Engine()
        fired = []
        victim = engine.schedule(2.0, lambda: fired.append("victim"))
        engine.schedule(1.0, victim.cancel)
        engine.run()
        assert fired == []
        assert engine.timers_cancelled_skipped == 1
        assert engine.events_executed == 1


class TestFlushHooks:
    def test_hook_fires_before_clock_advances(self):
        engine = Engine()
        log = []
        dirty = [False]

        def hook():
            if dirty[0]:
                dirty[0] = False
                log.append(("flush", engine.now))
                return True
            return False

        engine.add_flush_hook(hook)

        def mark():
            dirty[0] = True
            log.append(("mark", engine.now))

        engine.schedule(1.0, mark)
        engine.schedule(2.0, lambda: log.append(("later", engine.now)))
        engine.run()
        # The flush runs at t=1, before the clock moves to t=2.
        assert log == [("mark", 1.0), ("flush", 1.0), ("later", 2.0)]

    def test_hook_fires_on_queue_drain(self):
        engine = Engine()
        log = []
        dirty = [True]

        def hook():
            if dirty[0]:
                dirty[0] = False
                log.append("flush")
                return True
            return False

        engine.add_flush_hook(hook)
        engine.run()
        assert log == ["flush"]

    def test_hook_scheduled_timer_reexamined_before_pop(self):
        engine = Engine()
        order = []
        dirty = [True]

        def hook():
            if dirty[0]:
                dirty[0] = False
                # Deferred work lands *earlier* than the pending head; the
                # loop must re-examine the queue rather than pop t=5 first.
                engine.schedule(1.0, lambda: order.append(("hooked", engine.now)))
                return True
            return False

        engine.add_flush_hook(hook)
        engine.schedule(5.0, lambda: order.append(("head", engine.now)))
        engine.run()
        assert order == [("hooked", 1.0), ("head", 5.0)]

    def test_timers_within_epsilon_share_one_flush(self):
        """Timers a rounding error apart are one instant: no flush between.

        t1 and t2 are 0.9 ε apart and dispatch as one batch; t3 is 1.8 ε
        after t1 but only 0.9 ε after t2, so it still counts as the same
        instant and the flush waits until all three ran.
        """
        engine = Engine()
        log = []
        dirty = [False]

        def hook():
            if dirty[0]:
                dirty[0] = False
                log.append("flush")
                return True
            return False

        engine.add_flush_hook(hook)

        def mark(name):
            def callback():
                dirty[0] = True
                log.append(name)

            return callback

        for name, factor in (("t1", 0.0), ("t2", 0.9), ("t3", 1.8)):
            engine.schedule_at(2.0 * (1 + factor * TIME_EPSILON), mark(name))
        engine.run()
        assert log == ["t1", "t2", "t3", "flush"]
        assert engine.events_executed == 3

    def test_idle_hook_does_not_block_progress(self):
        engine = Engine()
        engine.add_flush_hook(lambda: False)
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.now == 1.0
        assert engine.events_executed == 1

    def test_hooks_run_in_registration_order(self):
        engine = Engine()
        order = []
        pending = {"a": True, "b": True}

        def make(name):
            def hook():
                if pending[name]:
                    pending[name] = False
                    order.append(name)
                    return True
                return False

            return hook

        engine.add_flush_hook(make("a"))
        engine.add_flush_hook(make("b"))
        engine.run()
        assert order == ["a", "b"]
