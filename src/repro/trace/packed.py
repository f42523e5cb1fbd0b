"""Columnar (struct-of-arrays) trace storage.

A :class:`PackedTrace` keeps one execution's event stream in five parallel
``array.array`` columns -- ``thread``/``address``/``flags``/``icount``/
``value`` -- instead of one :class:`~repro.trace.events.MemoryEvent` object
per access.  The engine records straight into the columns (five C-level
appends, no per-event object allocation), detectors with a
``process_packed`` path iterate the raw columns, and
:mod:`repro.trace.serialize` round-trips them to disk with one
``tobytes``/``frombytes`` per column.

The object view still exists -- :meth:`materialize_events` /
:meth:`to_trace` build the classic event list -- but it is produced
lazily, only for consumers that genuinely need event objects (replay
verification, diagnostics, the per-event detector paths).

Columns are normally owned ``array.array`` storage, but a trace may also
be *buffer-backed* (:meth:`PackedTrace.from_buffer`): its columns are
then read-only typed views over an external buffer -- an mmap-backed
store entry -- so loading a recording copies nothing.  See :func:`repro.trace.serialize.view_packed_trace`.

Flag encoding matches the on-disk format: bit 0 = write, bit 1 = sync.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence

from repro.common.types import AccessClass, AccessMode
from repro.trace.events import MemoryEvent
from repro.trace import kernels as _kernels

try:  # optional: vectorizes the derived-column computation
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is normally present
    _np = None

_U64 = 0xFFFFFFFFFFFFFFFF

#: Flag bits (shared with the serialized format).
FLAG_WRITE = 1
FLAG_SYNC = 2

#: Column typecodes, in canonical column order.
COLUMN_TYPECODES = (
    ("thread", "H"),   # u16 issuing thread
    ("address", "Q"),  # u64 byte address
    ("flags", "B"),    # u8  bit0=write bit1=sync
    ("icount", "Q"),   # u64 per-thread instruction count
    ("value", "q"),    # i64 value read or written
)

# The codec and the store rely on these exact widths; array typecode
# sizes are platform-dependent in principle, so fail loudly rather than
# write unreadable files.
for _name, _code in COLUMN_TYPECODES:
    _expected = {"H": 2, "Q": 8, "B": 1, "q": 8}[_code]
    if array(_code).itemsize != _expected:
        raise ImportError(
            "array typecode %r is %d bytes on this platform, expected %d"
            % (_code, array(_code).itemsize, _expected)
        )


class PackedTrace:
    """One recorded execution in struct-of-arrays form.

    Attributes:
        thread / address / flags / icount / value: the event columns
            (equal length; index *i* across all five is event *i*).
        final_icounts: per-thread instruction count at termination.
        name: program/workload name.
        hung: True when the watchdog stopped a deadlocked run.
        seed: scheduler seed of the run (None when not applicable).
    """

    __slots__ = (
        "thread",
        "address",
        "flags",
        "icount",
        "value",
        "final_icounts",
        "name",
        "hung",
        "seed",
        "_views",
        "_backing",
    )

    def __init__(
        self,
        final_icounts: Sequence[int] = (),
        name: str = "trace",
        hung: bool = False,
        seed: Optional[int] = None,
    ):
        self.thread = array("H")
        self.address = array("Q")
        self.flags = array("B")
        self.icount = array("Q")
        self.value = array("q")
        self.final_icounts: List[int] = list(final_icounts)
        self.name = name
        self.hung = hung
        self.seed = seed
        self._views: dict = {}
        self._backing = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_buffer(
        cls,
        columns,
        final_icounts: Sequence[int],
        name: str = "trace",
        hung: bool = False,
        seed: Optional[int] = None,
        backing=None,
    ) -> "PackedTrace":
        """A *buffer-backed* trace: columns are typed views, not arrays.

        ``columns`` are the five typed views (``memoryview.cast`` over a
        mapped buffer) in canonical column order; no bytes are
        copied.  ``backing`` is whatever owns the underlying buffer (an
        ``mmap``) and is pinned for the
        trace's lifetime so the views can never dangle.

        Buffer-backed traces are read-only recordings: appending raises
        (the views have no ``append``), while every analysis path --
        numpy kernels via ``frombuffer``, the scalar interpreters via
        the lazily cached :meth:`hot_columns` lists -- works unchanged.
        List materialization happens only when a scalar/no-numpy path
        actually asks for it, never at construction.
        """
        packed = cls(final_icounts, name=name, hung=hung, seed=seed)
        (packed.thread, packed.address, packed.flags, packed.icount,
         packed.value) = columns
        packed._backing = backing
        return packed

    @classmethod
    def from_events(
        cls,
        events: Sequence[MemoryEvent],
        final_icounts: Sequence[int],
        name: str = "trace",
        hung: bool = False,
        seed: Optional[int] = None,
    ) -> "PackedTrace":
        """Pack an existing event sequence into columns."""
        packed = cls(final_icounts, name=name, hung=hung, seed=seed)
        ta = packed.thread.append
        aa = packed.address.append
        fa = packed.flags.append
        ia = packed.icount.append
        va = packed.value.append
        for event in events:
            ta(event.thread)
            aa(event.address)
            fa(
                (FLAG_WRITE if event.is_write else 0)
                | (FLAG_SYNC if event.is_sync else 0)
            )
            ia(event.icount)
            va(event.value)
        return packed

    @classmethod
    def from_trace(cls, trace) -> "PackedTrace":
        """Pack a :class:`~repro.trace.stream.Trace`.

        A packed-backed trace returns its existing columns (no copy); an
        object-backed trace is packed column by column.
        """
        backing = getattr(trace, "packed", None)
        if backing is not None:
            return backing
        return cls.from_events(
            trace.events,
            trace.final_icounts,
            name=trace.name,
            hung=trace.hung,
            seed=trace.seed,
        )

    # -- views -----------------------------------------------------------------

    @property
    def n_threads(self) -> int:
        return len(self.final_icounts)

    @property
    def zero_copy(self) -> bool:
        """True when the columns are views over an external buffer
        (mmap-backed store entry) rather than
        owned ``array.array`` storage."""
        return not isinstance(self.thread, array)

    def __len__(self) -> int:
        return len(self.thread)

    def append(
        self, thread: int, address: int, flags: int, icount: int,
        value: int,
    ) -> None:
        """Append one event (hot callers bind the column appends instead)."""
        self.thread.append(thread)
        self.address.append(address)
        self.flags.append(flags)
        self.icount.append(icount)
        self.value.append(value)

    def columns(self):
        """The five columns in canonical order (thread, address, flags,
        icount, value)."""
        return (self.thread, self.address, self.flags, self.icount,
                self.value)

    def hot_columns(self):
        """``(thread, address, flags, icount)`` as plain lists.

        ``array.array`` iteration boxes every item on the fly; a list
        holds pre-boxed ints, which is measurably faster for the
        detectors' per-event loops.  The conversion happens once per
        trace and is cached (re-derived if the trace has since grown),
        so N analysis passes over one recording pay for it once.
        """
        n = len(self.thread)
        cached = self._views.get("hot")
        if cached is not None and cached[0] == n:
            return cached[1]
        lists = (
            self.thread.tolist(),
            self.address.tolist(),
            self.flags.tolist(),
            self.icount.tolist(),
        )
        self._views["hot"] = (n, lists)
        return lists

    def geometry_columns(self, line_mask: int, set_shift: int,
                         set_mask: int):
        """Per-event ``(line, word, word_bit, set_index)`` lists.

        These are pure functions of the address column and the cache
        geometry, so they are derived once (vectorized when numpy is
        available) and cached per geometry key; every configuration in
        a sweep that shares the geometry -- e.g. the whole D axis --
        reuses them instead of recomputing four shift/mask ops per
        event per pass.

        The cache key is the *normalized* geometry triple under a
        ``"geom"`` tag: masks are reduced to their unsigned-64 value, so
        a caller passing ``~(line_size - 1)`` as a negative Python int
        and one passing the two's-complement u64 share one entry, and
        tagged keys cannot collide with the trace's other cached views
        (hot columns, analysis plans, residuals) no matter what
        geometry values a config produces.
        """
        n = len(self.thread)
        key = ("geom", line_mask & _U64, set_shift, set_mask & _U64)
        cached = self._views.get(key)
        if cached is not None and cached[0] == n:
            return cached[1]
        offset_mask = ~line_mask & _U64  # line_size - 1
        if _np is not None and _kernels.kernels_enabled() \
                and offset_mask >> 2 < 64:
            addr = _np.frombuffer(self.address, dtype=_np.uint64)
            line = addr & _np.uint64(line_mask & _U64)
            word = (addr & _np.uint64(offset_mask)) >> _np.uint64(2)
            derived = (
                line.tolist(),
                word.tolist(),
                (_np.uint64(1) << word).tolist(),
                ((line >> _np.uint64(set_shift))
                 & _np.uint64(set_mask & _U64)).tolist(),
            )
        else:
            addresses = self.address.tolist()
            lines = [a & line_mask for a in addresses]
            words = [(a & offset_mask) >> 2 for a in addresses]
            derived = (
                lines,
                words,
                [1 << w for w in words],
                [(l >> set_shift) & set_mask for l in lines],
            )
        self._views[key] = (n, derived)
        return derived

    # -- analysis plans (config-independent numpy pre-passes) -----------------
    #
    # Both products below are pure functions of the recorded
    # columns (plus, where noted, a line mask), so they are computed at
    # most once per trace and shared by every detector configuration of
    # a sweep.  Caches hold only kernel-built (numpy) results: when the
    # kernels are disabled -- numpy absent or ``REPRO_NO_NUMPY=1`` --
    # every accessor returns ``None`` *without* touching the cache, so
    # flipping the escape hatch mid-process can never serve a stale
    # plan in place of the fallback path (or vice versa).

    def segment_plan(self, line_mask: int):
        """The cached :class:`~repro.trace.kernels.SegmentPlan` for
        ``line_mask``, or ``None`` when the kernels are unavailable (or
        the geometry does not fit 64-bit word masks)."""
        if not _kernels.kernels_enabled():
            return None
        return self.derived(
            ("plan", line_mask & _U64),
            lambda: _kernels.build_segment_plan(self, line_mask),
        )

    def word_residual(self):
        """The cached word-granularity residual view (sync events plus
        data accesses to words touched by more than one thread), or
        ``None`` when the kernels are unavailable."""
        if not _kernels.kernels_enabled():
            return None
        return self.derived(
            ("wordres",), lambda: _kernels.build_word_residual(self)
        )

    def derived(self, key, build):
        """Generic per-trace cache for derived analysis products.

        Higher layers (e.g. the CORD detector's coherence replay plan,
        :mod:`repro.cord.coherence`) cache trace-derived, config-shared
        structures here without :mod:`repro.trace` having to know their
        types.  ``key`` must be a hashable tuple whose first element
        tags the product (tagged keys cannot collide with the built-in
        views); ``build`` is invoked once and the result is memoized
        until the trace grows.
        """
        n = len(self.thread)
        cached = self._views.get(key)
        if cached is not None and cached[0] == n:
            return cached[1]
        value = build()
        self._views[key] = (n, value)
        return value

    def derived_cached(self, key):
        """The cached :meth:`derived` product for ``key``, or ``None``.

        A lookup that never builds: callers use it to decide whether a
        plan is already paid for (e.g. the CORD kernel dispatch falls
        back to the scalar loop when a coherence plan is neither cached
        nor going to be shared by another configuration).
        """
        cached = self._views.get(key)
        if cached is not None and cached[0] == len(self.thread):
            return cached[1]
        return None

    def iter_events(self) -> Iterator[MemoryEvent]:
        """Lazily yield event objects (for per-event detector paths)."""
        read, write = AccessMode.READ, AccessMode.WRITE
        data, sync = AccessClass.DATA, AccessClass.SYNC
        for index, (thread, address, flags, icount, value) in enumerate(
            zip(self.thread, self.address, self.flags, self.icount,
                self.value)
        ):
            yield MemoryEvent(
                index,
                thread,
                address,
                write if flags & FLAG_WRITE else read,
                sync if flags & FLAG_SYNC else data,
                icount,
                value,
            )

    def materialize_events(self) -> List[MemoryEvent]:
        """Build the full event-object list (diagnostics/replay checks)."""
        return list(self.iter_events())

    def to_trace(self):
        """A :class:`~repro.trace.stream.Trace` view over these columns.

        The returned trace materializes its event list lazily, on first
        ``.events`` access.
        """
        from repro.trace.stream import Trace

        return Trace.from_packed(self)

    def columns_equal(self, other: "PackedTrace") -> bool:
        """Exact column-level equality (used by equivalence tests)."""
        return (
            self.thread == other.thread
            and self.address == other.address
            and self.flags == other.flags
            and self.icount == other.icount
            and self.value == other.value
            and self.final_icounts == other.final_icounts
            and self.name == other.name
            and self.hung == other.hung
            and self.seed == other.seed
        )

    def __repr__(self):
        return "PackedTrace(name=%r, events=%d, threads=%d%s)" % (
            self.name,
            len(self.thread),
            self.n_threads,
            ", HUNG" if self.hung else "",
        )
