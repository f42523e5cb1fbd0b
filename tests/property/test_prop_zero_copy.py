"""Property tests: zero-copy (v3/mmap) traces are equivalent to eager ones.

The zero-copy plane rests on three claims, each asserted here on
hypothesis-generated traces and golden workloads:

1. **View = decode** -- a buffer-backed :class:`PackedTrace` built by
   :func:`view_packed_trace` over a v3 blob is indistinguishable from an
   eager :func:`decode_packed_trace` of the same blob (and from an eager
   decode of the *v2* encoding of the same trace): columns, counters,
   hot/geometry/derived views, and re-encoded bytes all match.
2. **Analysis equivalence** -- every detector family (CORD, Ideal,
   Epoch, LimitedVector) produces byte-identical outcomes on the
   zero-copy view, including on the scalar no-numpy fallback paths.
3. **Integrity survives** -- a truncated or bit-flipped v3 store entry
   raises :class:`StoreCorruptError` at the frame layer and is
   quarantined (never decoded) at the store layer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry
from repro.common.errors import StoreCorruptError
from repro.cord import CordConfig, CordDetector
from repro.detectors import IdealDetector
from repro.detectors.epoch import EpochDetector
from repro.detectors.vector_cord import LimitedVectorDetector
from repro.engine import run_program
from repro.trace import (
    MemoryEvent,
    PackedTrace,
    PackedTraceStore,
    decode_packed_trace,
    encode_packed_trace,
    view_packed_trace,
)
from repro.common.types import AccessClass, AccessMode
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


def _assert_traces_identical(view, eager):
    assert view.columns_equal(eager)
    assert view.final_icounts == eager.final_icounts
    assert view.name == eager.name
    assert view.hung == eager.hung
    assert view.seed == eager.seed
    assert len(view) == len(eager)
    assert view.hot_columns() == eager.hot_columns()
    # Geometry views (line/set extraction) over the mapped buffer.
    geo_view = view.geometry_columns(~0x3F, 6, 0x7F)
    geo_eager = eager.geometry_columns(~0x3F, 6, 0x7F)
    for mine, theirs in zip(geo_view, geo_eager):
        assert list(mine) == list(theirs)
    # Generic derived-view cache works over the buffer-backed columns.
    key = ("prop-derived",)
    assert view.derived(
        key, lambda: [x * 2 for x in view.address]
    ) == eager.derived(key, lambda: [x * 2 for x in eager.address])
    # Re-encoding a zero-copy trace is byte-identical to re-encoding
    # the eager one (export/publish paths rely on this).
    assert encode_packed_trace(view) == encode_packed_trace(eager)


# -- view = decode -----------------------------------------------------------


@given(
    events_strategy,
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
)
def test_v3_view_equals_eager_decode(raw_events, hung, seed):
    packed = PackedTrace.from_events(
        _build_events(raw_events),
        [2**31] * 4,
        name="prop",
        hung=hung,
        seed=seed,
    )
    blob = encode_packed_trace(packed)
    view = view_packed_trace(blob)
    eager = decode_packed_trace(blob)
    assert not eager.zero_copy
    _assert_traces_identical(view, eager)
    _assert_traces_identical(view, packed)


# -- analysis equivalence ----------------------------------------------------


def _families(n_threads):
    return [
        CordDetector(CordConfig(d=16), n_threads),
        IdealDetector(n_threads),
        EpochDetector(n_threads),
        LimitedVectorDetector(n_threads, CacheGeometry.infinite()),
    ]


def _assert_outcomes_identical(eager_outcome, view_outcome):
    assert eager_outcome.flagged == view_outcome.flagged
    assert eager_outcome.raw_count == view_outcome.raw_count
    assert eager_outcome.problem_detected == view_outcome.problem_detected
    assert dict(eager_outcome.counters) == dict(view_outcome.counters)


@settings(max_examples=20, deadline=None)
@given(programs, seeds)
def test_families_identical_on_zero_copy_view(thread_actions, seed):
    program = build_program(thread_actions)
    trace = run_program(program, seed=seed)
    blob = encode_packed_trace(trace.packed)
    view = view_packed_trace(blob)
    eager = decode_packed_trace(blob)
    for eager_detector, view_detector in zip(
        _families(program.n_threads), _families(program.n_threads)
    ):
        _assert_outcomes_identical(
            eager_detector.run_packed(eager),
            view_detector.run_packed(view),
        )


@pytest.mark.parametrize("workload", ["fft", "ocean"])
def test_golden_families_identical_on_view_scalar_fallback(
    workload, monkeypatch
):
    # The no-numpy escape hatch drives the scalar loops directly over
    # the buffer-backed memoryview columns; outcomes must still match
    # an eager decode analyzed the same way.
    program = get_workload(workload).build(WorkloadParams(scale=0.4))
    trace = run_program(program, seed=7)
    blob = encode_packed_trace(trace.packed)
    eager_outcomes = [
        det.run_packed(decode_packed_trace(blob))
        for det in _families(program.n_threads)
    ]
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    view = view_packed_trace(blob)
    assert view.zero_copy
    for eager_outcome, view_detector in zip(
        eager_outcomes, _families(program.n_threads)
    ):
        _assert_outcomes_identical(
            eager_outcome, view_detector.run_packed(view)
        )


# -- integrity ---------------------------------------------------------------


def _stored_entry(tmp_path):
    store = PackedTraceStore(tmp_path)
    program = get_workload("fft").build(WorkloadParams(scale=0.25))
    trace = run_program(program, seed=7)
    key = ("fft/params", (7, 0, 0.1))
    store.store_run(*key, trace.packed, {"injected": True})
    return store, key, store._path("trace", *key)


@pytest.mark.parametrize("cut", [0.25, 0.5, 0.99])
def test_truncated_v3_entry_quarantined(tmp_path, cut):
    from repro.trace.store import unframe_payload

    store, key, path = _stored_entry(tmp_path)
    raw = path.read_bytes()
    truncated = raw[: int(len(raw) * cut)]
    with pytest.raises(StoreCorruptError):
        unframe_payload(truncated)
    path.write_bytes(truncated)
    assert store.load_run(*key) is None
    assert store.stats["quarantined"] == 1
    assert (store.quarantine_dir / path.name).exists()


def test_bit_flipped_v3_entry_quarantined(tmp_path):
    from repro.trace.store import unframe_payload

    store, key, path = _stored_entry(tmp_path)
    raw = bytearray(path.read_bytes())
    flips = [len(raw) // 3, len(raw) // 2, len(raw) - 1]
    for offset in flips:
        damaged = bytearray(raw)
        damaged[offset] ^= 0xFF
        with pytest.raises(StoreCorruptError):
            unframe_payload(bytes(damaged))
    damaged = bytearray(raw)
    damaged[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(damaged))
    assert store.load_run(*key) is None
    assert store.stats["quarantined"] == 1
    assert store.stats["run_misses"] == 1
    assert store.stats["mmap_hits"] == 0

