"""Property tests: packed (columnar) traces are equivalent to object traces.

Three layers of the equivalence the record-once pipeline rests on:

1. **Representation** -- packing an event list and materializing it back
   is the identity (keys, values, indices).
2. **Codec** -- the v2 columnar codec round-trips packed traces exactly,
   and decodes v1 (row-major) files to the same content.
3. **Analysis** -- every detector's ``process_packed`` path produces
   byte-identical race reports and order logs to its per-event-object
   path, on hypothesis-generated racy programs and on golden workloads.
   The happens-before detectors are also fed a mixed stream -- a prefix
   through ``process()``, the rest as one packed pass -- which must equal
   the object path too.
   The vector-clock comparison detectors are pinned at every geometry
   (InfCache, L2Cache, L1Cache and a tiny cache that evicts constantly),
   oversubscribed processors included, on programs built to produce
   racy multi-event same-line runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry
from repro.common.types import AccessClass, AccessMode
from repro.cord import CordConfig, CordDetector
from repro.cord.directory import DirectoryCordDetector
from repro.detectors import IdealDetector
from repro.detectors.epoch import EpochDetector
from repro.detectors.vector_cord import LimitedVectorDetector
from repro.engine import run_program
from repro.program import AddressSpace, Program
from repro.program.ops import ComputeOp, ReadOp, WriteOp
from repro.resilience.guard import _fingerprint
from repro.sync import Mutex, acquire, release
from repro.trace import (
    MemoryEvent,
    PackedTrace,
    Trace,
    decode_packed_trace,
    decode_trace,
    encode_packed_trace,
    encode_trace,
)
from repro.workloads import WorkloadParams, get_workload

from tests.property.test_prop_serialize import events_strategy
from tests.property.test_prop_system import build_program, programs, seeds


def _build_events(raw_events):
    return [
        MemoryEvent(
            index,
            thread,
            address,
            AccessMode.WRITE if write else AccessMode.READ,
            AccessClass.SYNC if sync else AccessClass.DATA,
            icount,
            value,
        )
        for index, (thread, address, write, sync, icount, value)
        in enumerate(raw_events)
    ]


# -- representation ----------------------------------------------------------


@given(events_strategy)
def test_pack_materialize_is_identity(raw_events):
    events = _build_events(raw_events)
    packed = PackedTrace.from_events(events, [2**31] * 4)
    back = packed.materialize_events()
    assert len(back) == len(events)
    for mine, theirs in zip(events, back):
        assert mine.key() == theirs.key()
        assert mine.value == theirs.value
        assert mine.index == theirs.index


@given(events_strategy)
def test_lazy_trace_equals_object_trace(raw_events):
    events = _build_events(raw_events)
    object_trace = Trace(events, [2**31] * 4)
    lazy = Trace.from_packed(
        PackedTrace.from_events(events, [2**31] * 4)
    )
    assert lazy.per_thread_sequences() == object_trace.per_thread_sequences()
    assert lazy.addresses() == object_trace.addresses()


# -- codec -------------------------------------------------------------------


@given(
    events_strategy,
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
)
def test_packed_codec_roundtrip(raw_events, hung, seed):
    packed = PackedTrace.from_events(
        _build_events(raw_events),
        [2**31] * 4,
        name="prop",
        hung=hung,
        seed=seed,
    )
    restored = decode_packed_trace(encode_packed_trace(packed))
    assert restored.columns_equal(packed)


@given(events_strategy)
def test_packed_and_object_encode_identically(raw_events):
    events = _build_events(raw_events)
    object_trace = Trace(events, [2**31] * 4, name="prop")
    packed_trace = Trace.from_packed(
        PackedTrace.from_events(events, [2**31] * 4, name="prop")
    )
    assert encode_trace(object_trace) == encode_trace(packed_trace)


# -- analysis ---------------------------------------------------------------


def _assert_outcomes_identical(object_outcome, packed_outcome):
    assert object_outcome.flagged == packed_outcome.flagged
    assert [
        (r.access, r.address, r.other_thread, r.detail)
        for r in object_outcome.races
    ] == [
        (r.access, r.address, r.other_thread, r.detail)
        for r in packed_outcome.races
    ]
    object_log = getattr(object_outcome, "log", None)
    if object_log is not None:
        assert [
            (e.clock, e.thread, e.count) for e in object_log
        ] == [
            (e.clock, e.thread, e.count) for e in packed_outcome.log
        ]


#: CORD configurations every interpretation arm is pinned at: the
#: default, window mode with a walker that drops lines often (stale
#: residency hints), and a tiny cache that evicts constantly.
CORD_ARM_CONFIGS = (
    CordConfig(d=16),
    CordConfig(d=4, use_window=True, walker_period=8, walker_stale_lag=4),
    CordConfig(d=16, cache_size=512, associativity=2),
)


def _cord_arms(trace, config):
    """``run()``, ``run_packed()`` and per-event ``process()`` outcomes.

    All three must be byte-identical -- reports, order log, counters --
    (asserted here); returns the packed arm's detector and outcome.
    """
    packed = trace.packed
    if packed is None:  # a hand-built trace has no columns yet
        packed = PackedTrace.from_trace(trace)
    object_outcome = CordDetector(config, trace.n_threads).run(trace)
    packed_detector = CordDetector(config, trace.n_threads)
    packed_outcome = packed_detector.run_packed(packed)
    per_event = CordDetector(config, trace.n_threads)
    for event in trace.events:
        per_event.process(event)
    per_event_outcome = per_event.finish(trace)
    for outcome in (packed_outcome, per_event_outcome):
        assert _fingerprint(outcome) == _fingerprint(object_outcome)
    return packed_detector, packed_outcome


def _run_batched_with_migrations(detector, trace, schedule):
    """``run_with_migrations`` through ``process_batch`` chunks: each
    migration lands before the event at its index, at the thread's next
    instruction count; migrations past the trace's end never apply."""
    events = trace.events
    next_icount = [0] * trace.n_threads
    start = 0
    for index, thread, processor in sorted(schedule):
        if index >= len(events):
            break
        chunk = events[start:index]
        detector.process_batch(chunk)
        for event in chunk:
            next_icount[event.thread] = event.icount + 1
        detector.migrate_thread(thread, processor, next_icount[thread])
        start = index
    detector.process_batch(events[start:])
    return detector.finish(trace)


migration_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=1),  # programs have >= 2
        st.integers(min_value=0, max_value=3),
    ),
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(programs, seeds, migration_schedules)
def test_cord_packed_path_equivalent(thread_actions, seed, schedule):
    program = build_program(thread_actions)
    trace = run_program(program, seed=seed)
    for config in CORD_ARM_CONFIGS:
        _cord_arms(trace, config)
        # Migrations: the per-event feeder (run_with_migrations) and
        # the batch feeder must agree on the migrated interleaving.
        migrated = CordDetector(config, program.n_threads)
        per_event_outcome = migrated.run_with_migrations(trace, schedule)
        batched_outcome = _run_batched_with_migrations(
            CordDetector(config, program.n_threads), trace, schedule
        )
        assert _fingerprint(per_event_outcome) == _fingerprint(
            batched_outcome
        )


def _overflow_trace():
    """Two threads whose instruction counts cross 2^32 - 1.

    Thread 0's last fragment before its jump starts after the sync
    write at icount 2 (fragment start 3), so its access at 3 + 2^32 - 1
    hits the overflow guard (Section 2.7.1) with exactly 2^32 - 1
    instructions in the fragment; thread 1's fragment starts at 0 and
    hits it at icount 2^32 - 1.  Around the jumps the threads race on
    one line, and thread 0 runs same-line data bursts the segment
    kernel would otherwise collapse.
    """
    limit = 0xFFFFFFFF
    data = _STREAM_DATA_BASE
    sync = _STREAM_SYNC_BASE
    jump0 = 3 + limit
    rows = [
        # (thread, address, write, sync, icount)
        (0, data, True, False, 0),
        (1, data, False, False, 0),
        (0, data + 4, True, False, 1),
        (0, sync, True, True, 2),
        (0, data, False, False, jump0),
        (0, data + 4, True, False, jump0 + 1),
        (0, data + 8, True, False, jump0 + 2),
        (1, data + 8, True, False, limit),
        (1, sync, False, True, limit + 1),
        (0, data, True, False, jump0 + 3),
        (0, data + 4, False, False, jump0 + 4),
        (1, data + 4, False, False, limit + 2),
    ]
    events = [
        MemoryEvent(
            index,
            thread,
            address,
            AccessMode.WRITE if write else AccessMode.READ,
            AccessClass.SYNC if is_sync else AccessClass.DATA,
            icount,
        )
        for index, (thread, address, write, is_sync, icount)
        in enumerate(rows)
    ]
    return Trace(events, [jump0 + 5, limit + 3])


def test_overflow_guard_paths_agree():
    from repro.cord.fused import fuse_cord_detectors

    trace = _overflow_trace()
    packed = PackedTrace.from_trace(trace)
    for config in CORD_ARM_CONFIGS:
        detector, outcome = _cord_arms(trace, config)
        # The guard's clock ticks close exactly-full fragments.
        guard_entries = [
            (entry.thread, entry.count)
            for entry in outcome.log
            if entry.count == 0xFFFFFFFF
        ]
        assert guard_entries == [(0, 0xFFFFFFFF), (1, 0xFFFFFFFF)]
        # The kernel and the fused pass must decline this trace: the
        # guard is evaluated per event, which run collapsing skips.
        assert detector._kernel_unsafe(packed)
        assert not detector._kernel_spent
    sweep = [
        CordDetector(CordConfig(d=d), trace.n_threads) for d in (4, 16, 64)
    ]
    assert fuse_cord_detectors(sweep, packed) == frozenset()
    assert not any(det._kernel_spent for det in sweep)


def _run_mixed(detector, trace):
    """Feed the first half of ``trace`` event by event through
    ``process()``, then the rest as one packed pass."""
    events = trace.events
    split = len(events) // 2
    for event in events[:split]:
        detector.process(event)
    detector.process_packed(
        PackedTrace.from_events(events[split:], trace.final_icounts)
    )
    return detector.finish(trace)


@settings(max_examples=30, deadline=None)
@given(programs, seeds)
def test_ideal_and_epoch_packed_paths_equivalent(thread_actions, seed):
    program = build_program(thread_actions)
    trace = run_program(program, seed=seed)
    for build in (IdealDetector, EpochDetector):
        object_outcome = build(program.n_threads).run(trace)
        packed_outcome = build(program.n_threads).run_packed(trace.packed)
        _assert_outcomes_identical(object_outcome, packed_outcome)
        mixed_outcome = _run_mixed(build(program.n_threads), trace)
        _assert_outcomes_identical(object_outcome, mixed_outcome)


#: The vector-clock comparison geometries: InfCache, L2Cache, L1Cache,
#: and a 2-way 512 B cache (8 lines) that evicts constantly.
VECTOR_GEOMETRIES = (
    CacheGeometry.infinite(),
    CacheGeometry(32 * 1024),
    CacheGeometry(8 * 1024),
    CacheGeometry(512, associativity=2),
)


def _golden_detectors(n_threads):
    return [
        CordDetector(CordConfig(d=16), n_threads),
        CordDetector(CordConfig(d=4, use_window=True), n_threads),
        DirectoryCordDetector(CordConfig(d=16), n_threads),
        *(
            LimitedVectorDetector(n_threads, geometry)
            for geometry in VECTOR_GEOMETRIES
        ),
        EpochDetector(n_threads),
        IdealDetector(n_threads),
    ]


def test_golden_workloads_packed_equivalence():
    # Two golden workloads, every detector family, both paths: race
    # reports, order logs, and CORD's hot-path counters must all match.
    for workload in ("fft", "ocean"):
        program = get_workload(workload).build(WorkloadParams(scale=0.5))
        trace = run_program(program, seed=7)
        assert trace.packed is not None
        for object_detector, packed_detector in zip(
            _golden_detectors(program.n_threads),
            _golden_detectors(program.n_threads),
        ):
            object_outcome = object_detector.run(trace)
            packed_outcome = packed_detector.run_packed(trace.packed)
            _assert_outcomes_identical(object_outcome, packed_outcome)
            assert _fingerprint(object_outcome) == _fingerprint(
                packed_outcome
            )
            if isinstance(object_detector, CordDetector):
                assert (
                    object_detector.fast_hits,
                    object_detector.race_checks,
                    object_detector.memts_orderings,
                    object_detector.clock_changes,
                ) == (
                    packed_detector.fast_hits,
                    packed_detector.race_checks,
                    packed_detector.memts_orderings,
                    packed_detector.clock_changes,
                )


def test_golden_workload_codec_roundtrip_preserves_analysis():
    # Record -> encode -> decode -> analyze must equal direct analysis.
    program = get_workload("fft").build(WorkloadParams(scale=0.5))
    trace = run_program(program, seed=7)
    restored = decode_trace(encode_trace(trace))
    direct = CordDetector(CordConfig(), program.n_threads).run_packed(
        trace.packed
    )
    roundtripped = CordDetector(
        CordConfig(), program.n_threads
    ).run_packed(restored.packed)
    _assert_outcomes_identical(direct, roundtripped)


# -- vector-clock comparison detectors at every geometry ---------------------

#: A pool spanning 12 lines (3 per set of the tiny cache) so bursts
#: share lines across threads and finite caches evict.
VEC_LINES = 12
VEC_WORDS_PER_LINE = 16
VEC_WORDS = VEC_LINES * VEC_WORDS_PER_LINE

_vector_action = st.one_of(
    # A burst of consecutive accesses to one line: read, write, or
    # read-modify-write each word.  Unsynchronized, so bursts of
    # different threads over the same words race.
    st.tuples(
        st.just("burst"),
        st.integers(min_value=0, max_value=VEC_WORDS - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2),
    ),
    st.tuples(
        st.just("cs"),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=VEC_WORDS - 1),
        st.just(0),
    ),
    st.tuples(
        st.just("compute"),
        st.integers(min_value=1, max_value=5),
        st.just(0),
        st.just(0),
    ),
)


def _vector_programs(min_threads, max_threads):
    return st.lists(
        st.lists(_vector_action, min_size=1, max_size=20),
        min_size=min_threads,
        max_size=max_threads,
    )


def build_burst_program(thread_actions):
    space = AddressSpace()
    words = space.alloc_array("pool", VEC_WORDS)
    mutexes = [Mutex.allocate(space, "m%d" % i) for i in range(2)]

    def make_body(actions):
        def body(tid):
            for kind, a, b, c in actions:
                if kind == "burst":
                    line = a // VEC_WORDS_PER_LINE
                    line_end = (line + 1) * VEC_WORDS_PER_LINE
                    for word in range(a, min(a + b, line_end)):
                        if c != 1:
                            yield ReadOp(words[word])
                        if c != 0:
                            yield WriteOp(words[word], tid)
                elif kind == "cs":
                    yield from acquire(mutexes[a])
                    value = yield ReadOp(words[b])
                    yield WriteOp(words[b], (value or 0) + 1)
                    yield from release(mutexes[a])
                else:
                    yield ComputeOp(a)

        return body

    return Program(
        [make_body(actions) for actions in thread_actions],
        space,
        name="bursts",
    )


def _assert_vector_paths_identical(thread_actions, seed):
    program = build_burst_program(thread_actions)
    trace = run_program(program, seed=seed)
    for geometry in VECTOR_GEOMETRIES:
        object_outcome = LimitedVectorDetector(
            program.n_threads, geometry
        ).run(trace)
        packed_outcome = LimitedVectorDetector(
            program.n_threads, geometry
        ).run_packed(trace.packed)
        mixed_outcome = _run_mixed(
            LimitedVectorDetector(program.n_threads, geometry), trace
        )
        # Flagged set, race order and detail, and the eviction counter.
        assert _fingerprint(packed_outcome) == _fingerprint(object_outcome)
        assert _fingerprint(mixed_outcome) == _fingerprint(object_outcome)


@settings(max_examples=40, deadline=None)
@given(_vector_programs(2, 4), seeds)
def test_vector_packed_path_equivalent_every_geometry(thread_actions, seed):
    _assert_vector_paths_identical(thread_actions, seed)


@settings(max_examples=25, deadline=None)
@given(_vector_programs(5, 7), seeds)
def test_vector_packed_path_equivalent_oversubscribed(thread_actions, seed):
    # More threads than the 4 processors: threads sharing a processor
    # share its cache and never snoop each other.
    _assert_vector_paths_identical(thread_actions, seed)


#: Hand-built streams: the interleavings the engine's scheduler rarely
#: produces (a thread re-stamping one line at three clocks, retiring the
#: oldest entry, then a remote access to the retired word).
_STREAM_DATA_BASE = 0x10000
_STREAM_SYNC_BASE = 0x80000


@st.composite
def event_streams(draw):
    n_threads = draw(st.sampled_from((2, 4, 7)))
    thread = st.integers(min_value=0, max_value=n_threads - 1)
    chunk = st.one_of(
        st.tuples(
            st.just("data"),
            thread,
            # Lines 0, 4 and 8 share a set of the tiny 2-way cache.
            st.sampled_from((0, 4, 8, 1)),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=7),
                    st.booleans(),
                ),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("sync"),
            thread,
            # Many sync words: sparse ordering keeps races reachable.
            st.integers(min_value=0, max_value=7),
            st.booleans(),
        ),
    )
    chunks = draw(st.lists(chunk, min_size=12, max_size=40))
    events = []
    icounts = [0] * n_threads
    for kind, t, where, what in chunks:
        if kind == "sync":
            accesses = [(_STREAM_SYNC_BASE + 4 * where, what, True)]
        else:
            accesses = [
                (_STREAM_DATA_BASE + 64 * where + 4 * word, write, False)
                for word, write in what
            ]
        for address, write, sync in accesses:
            icounts[t] += 1
            events.append(
                MemoryEvent(
                    len(events),
                    t,
                    address,
                    AccessMode.WRITE if write else AccessMode.READ,
                    AccessClass.SYNC if sync else AccessClass.DATA,
                    icounts[t],
                    0,
                )
            )
    return Trace(events, icounts)


@settings(max_examples=150, deadline=None)
@given(event_streams())
def test_vector_packed_path_equivalent_on_event_streams(trace):
    packed = PackedTrace.from_trace(trace)
    for geometry in VECTOR_GEOMETRIES:
        object_outcome = LimitedVectorDetector(
            trace.n_threads, geometry
        ).run(trace)
        packed_outcome = LimitedVectorDetector(
            trace.n_threads, geometry
        ).run_packed(packed)
        mixed_outcome = _run_mixed(
            LimitedVectorDetector(trace.n_threads, geometry), trace
        )
        assert _fingerprint(packed_outcome) == _fingerprint(object_outcome)
        assert _fingerprint(mixed_outcome) == _fingerprint(object_outcome)


def test_burst_programs_exercise_racy_runs_and_evictions():
    # The generator is only useful if it reaches the kernel's hard
    # cases: a flagged access inside a multi-event same-line run, and
    # evictions in the tiny cache.
    bursts = [
        [("burst", 16 * line, 6, 2) for line in (0, 4, 8, 0)],
        [("burst", 16 * line + 2, 6, 1) for line in (0, 4, 8)],
        [("burst", 16 * line + 4, 4, 0) for line in (8, 0)],
        [("compute", 3, 0, 0), ("burst", 5, 3, 2)],
        [("burst", 16 * line, 4, 2) for line in (1, 5, 9, 1)],
    ]
    program = build_burst_program(bursts)
    trace = run_program(program, seed=3)
    plan = trace.packed.segment_plan(~63)
    if plan is None:
        pytest.skip("numpy unavailable: no segment plan")
    run_of = {}
    for start, end, sync in zip(plan.starts, plan.starts[1:], plan.sync):
        for i in range(start, end):
            run_of[i] = end - start if not sync else 0
    index_of = {
        (t, icount): i
        for i, (t, icount) in enumerate(
            zip(trace.packed.thread, trace.packed.icount)
        )
    }
    tiny = LimitedVectorDetector(program.n_threads, VECTOR_GEOMETRIES[-1])
    outcome = tiny.run_packed(trace.packed)
    assert outcome.counters["evictions"] > 0
    assert any(run_of[index_of[access]] > 1 for access in outcome.flagged)
    _assert_vector_paths_identical(bursts, 3)
