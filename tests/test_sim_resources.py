"""Unit tests for Semaphore and Barrier."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import Barrier, Semaphore


class TestSemaphore:
    def test_acquire_when_available(self):
        engine = Engine()
        semaphore = Semaphore(engine, tokens=2)
        assert semaphore.acquire().triggered
        assert semaphore.available == 1

    def test_acquire_blocks_when_empty(self):
        engine = Engine()
        semaphore = Semaphore(engine, tokens=1)
        semaphore.acquire()
        event = semaphore.acquire()
        assert not event.triggered
        assert semaphore.waiting == 1

    def test_release_wakes_fifo(self):
        engine = Engine()
        semaphore = Semaphore(engine, tokens=0)
        first = semaphore.acquire()
        second = semaphore.acquire()
        semaphore.release()
        assert first.triggered and not second.triggered
        semaphore.release()
        assert second.triggered

    def test_release_without_waiters_increments(self):
        engine = Engine()
        semaphore = Semaphore(engine, tokens=0)
        semaphore.release()
        assert semaphore.available == 1

    def test_negative_tokens_rejected(self):
        with pytest.raises(SimulationError):
            Semaphore(Engine(), tokens=-1)

    def test_with_processes(self):
        engine = Engine()
        semaphore = Semaphore(engine, tokens=1, name="slots")
        order = []

        def worker(name, hold):
            yield semaphore.acquire()
            order.append((name, "in", engine.now))
            yield hold
            semaphore.release()
            order.append((name, "out", engine.now))

        engine.spawn(worker("a", 2.0), name="a")
        engine.spawn(worker("b", 1.0), name="b")
        engine.run()
        # release() hands the token to b synchronously, so b enters
        # before a's generator resumes to log its own exit.
        assert order == [
            ("a", "in", 0.0),
            ("b", "in", 2.0),
            ("a", "out", 2.0),
            ("b", "out", 3.0),
        ]


class TestBarrier:
    def test_releases_when_all_arrive(self):
        engine = Engine()
        barrier = Barrier(engine, parties=3)
        events = [barrier.arrive() for _ in range(2)]
        assert not any(e.triggered for e in events)
        third = barrier.arrive()
        assert third.triggered
        assert all(e.triggered for e in events)

    def test_cycles_reset(self):
        engine = Engine()
        barrier = Barrier(engine, parties=2)
        barrier.arrive()
        gen0 = barrier.arrive()
        assert gen0.value == 0
        barrier.arrive()
        gen1 = barrier.arrive()
        assert gen1.value == 1

    def test_single_party_never_blocks(self):
        engine = Engine()
        barrier = Barrier(engine, parties=1)
        for _ in range(3):
            assert barrier.arrive().triggered

    def test_zero_parties_rejected(self):
        with pytest.raises(SimulationError):
            Barrier(Engine(), parties=0)

    def test_waiting_count(self):
        engine = Engine()
        barrier = Barrier(engine, parties=3)
        barrier.arrive()
        assert barrier.waiting == 1

    def test_ranks_align_in_simulation(self):
        """Slow and fast ranks leave the barrier at the same instant."""
        engine = Engine()
        barrier = Barrier(engine, parties=2)
        leave_times = []

        def rank(compute):
            for _ in range(3):
                yield compute
                yield barrier.arrive()
                leave_times.append(engine.now)

        engine.spawn(rank(1.0), name="fast")
        engine.spawn(rank(1.5), name="slow")
        engine.run()
        # Pairs of identical leave times at 1.5, 3.0, 4.5.
        assert leave_times == [1.5, 1.5, 3.0, 3.0, 4.5, 4.5]

