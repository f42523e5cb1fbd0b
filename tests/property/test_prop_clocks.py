"""Property-based tests for clocks and the sliding-window comparator.

Vector clocks are component tuples under the lattice helpers of
:mod:`repro.detectors.hb`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import ScalarClock, SlidingWindowComparator
from repro.detectors.hb import dominates, join, tick

vectors = st.lists(
    st.integers(min_value=0, max_value=50), min_size=3, max_size=3
).map(tuple)


def happens_before(a, b):
    return dominates(b, a) and a != b


def concurrent(a, b):
    return not dominates(a, b) and not dominates(b, a)


class TestVectorClockLattice:
    @given(vectors, vectors)
    def test_join_commutative(self, a, b):
        assert join(a, b) == join(b, a)

    @given(vectors, vectors, vectors)
    def test_join_associative(self, a, b, c):
        assert join(join(a, b), c) == join(a, join(b, c))

    @given(vectors)
    def test_join_idempotent(self, a):
        assert join(a, a) == a

    @given(vectors, vectors)
    def test_join_is_upper_bound(self, a, b):
        upper = join(a, b)
        assert dominates(upper, a) and dominates(upper, b)

    @given(vectors, vectors)
    def test_order_trichotomy(self, a, b):
        relations = [
            a == b,
            happens_before(a, b),
            happens_before(b, a),
            concurrent(a, b),
        ]
        assert relations.count(True) == 1

    @given(vectors, vectors, vectors)
    def test_happens_before_transitive(self, a, b, c):
        if happens_before(a, b) and happens_before(b, c):
            assert happens_before(a, c)

    @given(vectors, st.integers(min_value=0, max_value=2))
    def test_tick_strictly_advances(self, a, thread):
        assert happens_before(a, tick(a, thread))


class TestSlidingWindowAgreement:
    @given(
        st.integers(min_value=0, max_value=1 << 22),
        st.integers(min_value=-(1 << 15) + 1, max_value=(1 << 15) - 1),
    )
    def test_windowed_equals_unbounded_within_window(self, base, delta):
        other = base + delta
        if other < 0:
            return
        cmp = SlidingWindowComparator()
        assert cmp.within_window(base, other)
        assert cmp.greater(base, other) == (base > other)
        assert cmp.greater_equal(base, other) == (base >= other)

    @given(
        st.integers(min_value=0, max_value=1 << 22),
        st.integers(min_value=0, max_value=(1 << 14)),
        st.integers(min_value=1, max_value=256),
    )
    def test_synchronized_after_matches_unbounded(self, ts, gap, d):
        cmp = SlidingWindowComparator()
        clock = ts + gap
        assert cmp.synchronized_after(clock, ts, d) == (clock >= ts + d)


class TestScalarClockProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["race", "sync_read", "sync_write"]),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=40,
        ),
        st.sampled_from([1, 4, 16, 256]),
    )
    def test_clock_never_decreases(self, updates, d):
        clock = ScalarClock(d=d)
        previous = clock.value
        for kind, ts in updates:
            if kind == "race":
                clock.update_for_race(ts)
            elif kind == "sync_read":
                clock.update_for_sync_read(ts)
            else:
                clock.increment_after_sync_write()
            assert clock.value >= previous
            previous = clock.value

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 4, 16]),
    )
    def test_race_update_establishes_order(self, initial, ts, d):
        clock = ScalarClock(d=d, initial=initial)
        clock.update_for_race(ts)
        assert clock.ordered_after(ts)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 4, 16]),
    )
    def test_sync_read_establishes_window(self, initial, ts, d):
        clock = ScalarClock(d=d, initial=initial)
        clock.update_for_sync_read(ts)
        assert clock.synchronized_after(ts)

    @given(st.integers(min_value=1, max_value=256))
    def test_synchronized_implies_ordered(self, d):
        clock = ScalarClock(d=d, initial=100)
        for ts in range(0, 120):
            if clock.synchronized_after(ts):
                assert clock.ordered_after(ts)
