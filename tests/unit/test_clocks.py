"""Unit tests for the clock implementations (scalar, Lamport, vector).

Vector clocks are component tuples operated on by the helpers of
:mod:`repro.detectors.hb`.
"""

import pytest

from repro.clocks import (
    LamportClock,
    LamportStamp,
    ScalarClock,
)
from repro.common.errors import ConfigError
from repro.detectors.hb import HBState, dominates, join, tick


class TestScalarClock:
    def test_initial_value(self):
        assert ScalarClock().value == 1

    def test_rejects_bad_d(self):
        with pytest.raises(ConfigError):
            ScalarClock(d=0)

    def test_race_update_when_behind(self):
        clock = ScalarClock(d=16)
        assert clock.update_for_race(5)
        assert clock.value == 6

    def test_race_update_on_equal_clock(self):
        # "if conflicting accesses have the same logical clock, we update
        # the clock of one of the accesses" (Section 2.7.1).
        clock = ScalarClock(d=16, initial=5)
        assert clock.update_for_race(5)
        assert clock.value == 6

    def test_no_update_when_ahead(self):
        clock = ScalarClock(d=16, initial=10)
        assert not clock.update_for_race(5)
        assert clock.value == 10

    def test_sync_read_window_update(self):
        clock = ScalarClock(d=16)
        assert clock.update_for_sync_read(10)
        assert clock.value == 26

    def test_sync_read_no_lowering(self):
        clock = ScalarClock(d=4, initial=100)
        assert not clock.update_for_sync_read(10)
        assert clock.value == 100

    def test_ordered_vs_synchronized_window(self):
        # Ordered (clk > ts) but not synchronized (clk < ts + D): the
        # Figure 9 regime where the order-recorder omits the race but the
        # detector still reports it.
        clock = ScalarClock(d=16, initial=12)
        assert clock.ordered_after(10)
        assert not clock.synchronized_after(10)
        clock.value = 26
        assert clock.synchronized_after(10)

    def test_d1_degenerates_to_ordering(self):
        clock = ScalarClock(d=1, initial=11)
        assert clock.ordered_after(10) == clock.synchronized_after(10)

    def test_sync_write_increment(self):
        clock = ScalarClock(d=16, initial=3)
        clock.increment_after_sync_write()
        assert clock.value == 4

    def test_migration_increment_is_d(self):
        clock = ScalarClock(d=16, initial=3)
        clock.increment_for_migration()
        assert clock.value == 19


class TestLamportClock:
    def test_tick_monotone(self):
        clock = LamportClock(0)
        first = clock.tick()
        second = clock.tick()
        assert first < second

    def test_observe_jumps_past(self):
        clock = LamportClock(0, initial=1)
        clock.observe(LamportStamp(10, 1))
        assert clock.sequence == 11

    def test_tie_break_by_thread_id(self):
        # The total order CORD deliberately removes.
        a = LamportStamp(5, 0)
        b = LamportStamp(5, 1)
        assert a.happens_before(b)
        assert not b.happens_before(a)

    def test_equal_stamps_same_thread(self):
        assert LamportStamp(5, 1) == LamportStamp(5, 1)


def happens_before(a, b):
    """Strict happens-before: ``b`` dominates ``a`` and they differ."""
    return dominates(b, a) and a != b


class TestVectorClock:
    def test_zero_and_unit(self):
        # Threads start at their unit vectors; zero is join's identity.
        assert HBState(3).clocks == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert join((0, 0, 0), (0, 1, 0)) == (0, 1, 0)

    def test_immutable(self):
        # A published stamp is a value: the writer's later tick does
        # not reach into the history table that holds it.
        state = HBState(2)
        state.sync(0, 0x80, is_write=1)
        published = state.writes[0x80]
        state.sync(0, 0x80, is_write=1)
        assert published == (1, 0)
        assert state.clocks[0] == (3, 0)

    def test_happens_before_strict(self):
        a = (1, 0)
        b = (1, 1)
        assert happens_before(a, b)
        assert not happens_before(b, a)
        assert not happens_before(a, a)

    def test_concurrent(self):
        a = (1, 0)
        b = (0, 1)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_join_is_componentwise_max(self):
        assert join((1, 5, 0), (2, 1, 0)) == (2, 5, 0)

    def test_ticked(self):
        assert tick((1, 1), 0) == (2, 1)

    def test_hashable_value_semantics(self):
        # Clocks reached by different joins are equal, interchangeable
        # values (history entries merge on clock equality).
        a = join((1, 2), (0, 2))
        b = join((0, 1), (1, 2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
