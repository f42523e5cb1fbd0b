"""Unit tests for columnar trace storage and the recorded-trace store."""

import pickle
import sys

import pytest

from repro.common.types import AccessClass, AccessMode
from repro.trace import (
    MemoryEvent,
    PackedTrace,
    PackedTraceStore,
    Trace,
    decode_packed_trace,
    encode_packed_trace,
)
from repro.trace import kernels as _kernels
from repro.trace.packed import FLAG_SYNC, FLAG_WRITE


def _event(index, thread, address, write, sync, icount, value=0):
    return MemoryEvent(
        index,
        thread,
        address,
        AccessMode.WRITE if write else AccessMode.READ,
        AccessClass.SYNC if sync else AccessClass.DATA,
        icount,
        value,
    )


_EVENTS = [
    _event(0, 0, 0x40, False, False, 3, 7),
    _event(1, 1, 0x44, True, False, 1, -9),
    _event(2, 0, 0x80, True, True, 5, 1),
    _event(3, 2, 0x40, False, True, 2, 0),
]


class TestPackedTrace:
    def test_from_events_roundtrip(self):
        packed = PackedTrace.from_events(
            _EVENTS, [10, 4, 3], name="t", hung=True, seed=5
        )
        assert len(packed) == len(_EVENTS)
        assert packed.n_threads == 3
        back = packed.materialize_events()
        for mine, theirs in zip(_EVENTS, back):
            assert mine.key() == theirs.key()
            assert mine.value == theirs.value
            assert mine.index == theirs.index

    def test_flag_encoding(self):
        packed = PackedTrace.from_events(_EVENTS, [10, 4, 3])
        assert list(packed.flags) == [
            0,
            FLAG_WRITE,
            FLAG_WRITE | FLAG_SYNC,
            FLAG_SYNC,
        ]

    def test_append_matches_from_events(self):
        packed = PackedTrace([10, 4, 3])
        for e in _EVENTS:
            packed.append(
                e.thread,
                e.address,
                (FLAG_WRITE if e.is_write else 0)
                | (FLAG_SYNC if e.is_sync else 0),
                e.icount,
                e.value,
            )
        assert packed.columns_equal(
            PackedTrace.from_events(_EVENTS, [10, 4, 3])
        )

    def test_columns_order(self):
        packed = PackedTrace.from_events(_EVENTS, [10, 4, 3])
        thread, address, flags, icount, value = packed.columns()
        assert thread is packed.thread
        assert value is packed.value

    def test_from_trace_reuses_packed_backing(self):
        packed = PackedTrace.from_events(_EVENTS, [10, 4, 3])
        trace = packed.to_trace()
        assert PackedTrace.from_trace(trace) is packed

    def test_from_trace_packs_object_backed(self):
        trace = Trace(_EVENTS, [10, 4, 3], name="obj", seed=9)
        packed = PackedTrace.from_trace(trace)
        assert packed.name == "obj"
        assert packed.seed == 9
        assert len(packed) == len(_EVENTS)

    def test_columns_equal_detects_difference(self):
        a = PackedTrace.from_events(_EVENTS, [10, 4, 3])
        b = PackedTrace.from_events(_EVENTS, [10, 4, 3])
        assert a.columns_equal(b)
        b.value[0] += 1
        assert not a.columns_equal(b)


class TestLazyTrace:
    def test_events_materialize_lazily(self):
        packed = PackedTrace.from_events(_EVENTS, [10, 4, 3])
        trace = Trace.from_packed(packed)
        assert trace._events is None
        assert len(trace) == len(_EVENTS)  # no materialization needed
        assert trace._events is None
        events = trace.events
        assert trace._events is events  # cached after first access
        assert [e.key() for e in events] == [e.key() for e in _EVENTS]

    def test_metadata_copied_from_packed(self):
        packed = PackedTrace.from_events(
            _EVENTS, [10, 4, 3], name="meta", hung=True, seed=42
        )
        trace = Trace.from_packed(packed)
        assert trace.name == "meta"
        assert trace.hung is True
        assert trace.seed == 42
        assert trace.n_threads == 3

    def test_addresses_without_materialization(self):
        trace = Trace.from_packed(
            PackedTrace.from_events(_EVENTS, [10, 4, 3])
        )
        assert trace.addresses() == [0x40, 0x44, 0x80]
        assert trace._events is None


class TestTraceCopySemantics:
    def test_default_copies(self):
        events = list(_EVENTS)
        trace = Trace(events, [10, 4, 3])
        events.append(_EVENTS[0])
        assert len(trace) == len(_EVENTS)

    def test_nocopy_adopts_list(self):
        events = list(_EVENTS)
        trace = Trace(events, [10, 4, 3], copy=False)
        assert trace.events is events


class TestEngineRecordsPacked:
    def test_run_program_returns_packed_backed_trace(self):
        from repro.engine import run_program
        from repro.workloads import WorkloadParams, get_workload

        program = get_workload("fft").build(WorkloadParams(scale=0.25))
        trace = run_program(program, seed=3)
        packed = trace.packed
        assert packed is not None
        assert len(packed) == len(trace.events)
        for event, (t, a, f, ic, v) in zip(
            trace.events,
            zip(
                packed.thread,
                packed.address,
                packed.flags,
                packed.icount,
                packed.value,
            ),
        ):
            assert event.thread == t
            assert event.address == a
            assert event.is_write == bool(f & FLAG_WRITE)
            assert event.is_sync == bool(f & FLAG_SYNC)
            assert event.icount == ic
            assert event.value == v


class TestDerivedViews:
    """The per-trace caches behind the analysis plans (PR 3)."""

    _GEOM = (~0x3F, 6, 0x7)  # 64-byte lines, 8 sets

    def _packed(self):
        return PackedTrace.from_events(_EVENTS, [10, 4, 3])

    def test_geometry_columns_values(self):
        packed = self._packed()
        lines, words, wbits, sets = packed.geometry_columns(*self._GEOM)
        assert lines == [a & ~0x3F for a in packed.address]
        assert words == [(a & 0x3F) >> 2 for a in packed.address]
        assert wbits == [1 << w for w in words]
        assert sets == [(l >> 6) & 0x7 for l in lines]

    def test_geometry_columns_cached_per_key(self):
        packed = self._packed()
        first = packed.geometry_columns(*self._GEOM)
        assert packed.geometry_columns(*self._GEOM) is first
        other = packed.geometry_columns(~0x1F, 5, 0x7)
        assert other is not first
        assert packed.geometry_columns(~0x1F, 5, 0x7) is other
        assert packed.geometry_columns(*self._GEOM) is first

    def test_geometry_key_normalizes_mask_sign(self):
        # A negative Python mask and its two's-complement u64 twin must
        # share one cache entry (both spellings occur in configs).
        packed = self._packed()
        negative = packed.geometry_columns(~0x3F, 6, 0x7)
        unsigned = packed.geometry_columns(
            ~0x3F & 0xFFFFFFFFFFFFFFFF, 6, 0x7
        )
        assert unsigned is negative

    def test_geometry_cache_invalidated_by_growth(self):
        packed = self._packed()
        stale = packed.geometry_columns(*self._GEOM)
        packed.append(1, 0x1C0, FLAG_WRITE, 9, 0)
        fresh = packed.geometry_columns(*self._GEOM)
        assert fresh is not stale
        assert len(fresh[0]) == len(packed.thread)

    def test_geometry_columns_match_scalar_fallback(self, monkeypatch):
        with_kernels = self._packed().geometry_columns(*self._GEOM)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        scalar = self._packed().geometry_columns(*self._GEOM)
        assert scalar == with_kernels

    def test_plan_accessors_none_when_kernels_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        packed = self._packed()
        assert packed.segment_plan(~0x3F) is None
        assert packed.word_residual() is None

    @pytest.mark.skipif(
        _kernels._np is None,
        reason="needs numpy for the enabled half of the toggle",
    )
    def test_disabled_kernels_never_poison_plan_cache(self, monkeypatch):
        # Toggling the escape hatch mid-process must not serve a stale
        # None (or a stale plan) for the other mode.
        packed = self._packed()
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert packed.segment_plan(~0x3F) is None
        monkeypatch.delenv("REPRO_NO_NUMPY")
        plan = packed.segment_plan(~0x3F)
        assert plan is not None
        assert plan.starts[-1] == len(packed.thread)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert packed.segment_plan(~0x3F) is None

    def test_derived_generic_cache_builds_once(self):
        packed = self._packed()
        calls = []

        def build():
            calls.append(1)
            return {"x": 1}

        first = packed.derived(("mytag", 7), build)
        assert packed.derived(("mytag", 7), build) is first
        assert len(calls) == 1
        assert packed.derived(("mytag", 8), build) is not first
        packed.append(1, 0x200, 0, 12, 0)
        rebuilt = packed.derived(("mytag", 7), build)
        assert rebuilt is not first


class TestPackedTraceStore:
    def _packed(self):
        return PackedTrace.from_events(
            _EVENTS, [10, 4, 3], name="store-me", seed=11
        )

    def test_run_roundtrip(self, tmp_path):
        store = PackedTraceStore(tmp_path)
        store.store_run("fft/params", (3, 1, 0.1), self._packed(),
                        {"injected": True})
        hit = store.load_run("fft/params", (3, 1, 0.1))
        assert hit is not None
        packed, extra = hit
        assert packed.columns_equal(self._packed())
        assert extra == {"injected": True}

    def test_miss_on_different_components(self, tmp_path):
        store = PackedTraceStore(tmp_path)
        store.store_run("fft/params", (3, 1, 0.1), self._packed(), {})
        assert store.load_run("fft/params", (3, 2, 0.1)) is None
        assert store.load_run("fft/params", (3, 1, 0.2)) is None
        assert store.load_run("other/params", (3, 1, 0.1)) is None

    def test_value_roundtrip(self, tmp_path):
        store = PackedTraceStore(tmp_path)
        assert store.load_value("ns", ("sync_instances", 5)) is None
        store.store_value("ns", ("sync_instances", 5), 17)
        assert store.load_value("ns", ("sync_instances", 5)) == 17

    def test_corrupt_entry_misses(self, tmp_path):
        store = PackedTraceStore(tmp_path)
        key = ("fft/params", (3, 1, 0.1))
        store.store_run(*key, self._packed(), {})
        path = store._path("trace", *key)
        path.write_bytes(b"garbage")
        assert store.load_run(*key) is None

    def test_wrong_trace_payload_misses(self, tmp_path):
        # A healthy frame around a broken entry (the writer was buggy)
        # must still miss -- and be quarantined, not analyzed.
        from repro.trace.store import frame_payload

        store = PackedTraceStore(tmp_path)
        key = ("fft/params", (3, 1, 0.1))
        store.store_run(*key, self._packed(), {})
        path = store._path("trace", *key)
        path.write_bytes(frame_payload(
            pickle.dumps({"trace": b"not a codec blob", "extra": {}})
        ))
        assert store.load_run(*key) is None
        assert store.stats["quarantined"] == 1

    def test_codec_used_for_trace_payload(self, tmp_path):
        # The stored blob must be the store frame around a CORDRUN3
        # container whose trace section is the v3 codec output, placed
        # 64-byte aligned in the file, so offline tools can decode
        # entries with the frame helper plus two struct reads.
        from repro.trace.store import (
            _RUN_HEADER,
            _RUN_MAGIC,
            unframe_payload,
        )

        store = PackedTraceStore(tmp_path)
        key = ("fft/params", (3, 1, 0.1))
        store.store_run(*key, self._packed(), {"injected": True})
        path = store._path("trace", *key)
        raw = path.read_bytes()
        payload = unframe_payload(raw)
        assert payload[: len(_RUN_MAGIC)] == _RUN_MAGIC
        extra_len, pad = _RUN_HEADER.unpack_from(payload, len(_RUN_MAGIC))
        start = len(_RUN_MAGIC) + _RUN_HEADER.size
        assert pickle.loads(payload[start: start + extra_len]) == {
            "injected": True
        }
        trace = payload[start + extra_len + pad:]
        assert trace == encode_packed_trace(self._packed())
        assert decode_packed_trace(trace).columns_equal(self._packed())
        # The v3 blob must start 64-byte aligned in the *file* so mmap
        # hands out aligned column sections.
        assert raw.index(trace) % 64 == 0

    def test_non_container_entry_is_quarantined_miss(self, tmp_path):
        # A healthy frame around anything but a CORDRUN3 container --
        # here the pre-container pickled-dict layout, holding a valid
        # v3 trace -- under a current key is a broken writer's output:
        # a quarantined miss, never decoded.
        from repro.trace.store import frame_payload
        from repro.resilience.checkpoint import atomic_write_bytes

        store = PackedTraceStore(tmp_path)
        key = ("fft/params", (3, 1, 0.1))
        dict_entry = pickle.dumps({
            "trace": encode_packed_trace(self._packed()),
            "extra": {"injected": False},
        }, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(
            store._path("trace", *key), frame_payload(dict_entry)
        )
        assert store.load_run(*key) is None
        assert store.stats["quarantined"] == 1
        assert store.stats["run_misses"] == 1
        assert not store._path("trace", *key).exists()

    def test_previous_schema_entries_miss_by_key(self, tmp_path):
        # Entries keyed under an older store schema are never looked
        # up: a load misses without reading (or quarantining) them.
        import hashlib

        from repro.trace.store import frame_payload

        store = PackedTraceStore(tmp_path)
        namespace, components = "fft/params", (3, 1, 0.1)
        old_digest = hashlib.sha256(repr(
            (2, "CORDTRC2", namespace, components)
        ).encode()).hexdigest()[:20]
        current = store._path("trace", namespace, components)
        old = current.with_name(
            current.name.replace(
                store._digest(namespace, components), old_digest
            )
        )
        assert old != current
        old.write_bytes(frame_payload(b"an entry of an older layout"))
        assert store.load_run(namespace, components) is None
        assert store.stats["run_misses"] == 1
        assert store.stats["quarantined"] == 0
        assert old.exists()

    def test_mmap_hit_and_no_mmap_escape_hatch(self, tmp_path, monkeypatch):
        store = PackedTraceStore(tmp_path)
        key = ("fft/params", (3, 1, 0.1))
        store.store_run(*key, self._packed(), {})
        packed, _ = store.load_run(*key)
        assert packed.columns_equal(self._packed())
        if sys.byteorder == "little":
            assert packed.zero_copy
            assert store.stats["mmap_hits"] == 1
            assert store.stats["eager_decodes"] == 0
        # A file mmap refuses falls back to the eager read.
        def refuse(*args, **kwargs):
            raise OSError("mmap refused")

        monkeypatch.setattr("repro.trace.store.mmap.mmap", refuse)
        eager = PackedTraceStore(tmp_path)
        packed2, _ = eager.load_run(*key)
        assert not packed2.zero_copy
        assert packed2.columns_equal(self._packed())
        assert eager.stats["eager_decodes"] == 1
        assert eager.stats["mmap_hits"] == 0
