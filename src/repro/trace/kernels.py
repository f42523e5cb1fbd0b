"""Vectorized analysis kernels: numpy pre-passes over packed-trace columns.

CORD's core idea is that almost every access can be dismissed before any
timestamp work happens (check filters, lines absent from every cache).
This module applies the same filtering idea to the *simulation* of the
mechanism: one numpy pre-pass over a :class:`~repro.trace.packed.
PackedTrace`'s columns classifies and segments the event stream so the
per-event interpreter loops only touch the events that can still matter.

Everything computed here is a pure function of the recorded columns (plus,
where noted, the cache line mask), so one **analysis plan** is computed per
recorded trace and shared by every detector configuration of a sweep --
the record-once/analyze-many pipeline pays the classification cost once
and the per-configuration passes reap it eight times over.

Two plan products, both cached on the trace:

:class:`SegmentPlan` (per line mask)
    The stream cut into *runs* -- maximal spans of consecutive events
    issued by one thread to one cache line, containing no synchronization
    (each sync access is its own singleton segment) -- with the OR of the
    span's read and write word bits precomputed per run.  CORD's packed
    interpreter consumes whole runs at a time: when the line's check
    filter is valid at the thread's current clock, the entire run is a
    provable fast-path hit and collapses to two mask ORs.  The
    vector-clock comparison detectors walk the same plan: a run that
    misses every undominated remote mask collapses the same way.

:func:`word_residual` (config-independent)
    Data accesses to words only ever touched by a single thread can never
    race and leave no observable history for the happens-before oracles;
    the residual view keeps synchronization plus shared-word data
    accesses, in original order, and counts what was dropped.

Numpy is optional everywhere: every builder returns ``None`` when numpy
is unavailable -- or when ``REPRO_NO_NUMPY=1`` forces the pure-python
fallback -- and every consumer falls back to the scalar packed loop,
whose outputs are byte-identical by construction (pinned by the kernel
equivalence suite).
"""

from __future__ import annotations

import os
from typing import List, Optional

try:  # optional acceleration; the scalar loops remain the reference
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

_U64 = 0xFFFFFFFFFFFFFFFF

#: Environment escape hatch: force the pure-python fallback paths even
#: when numpy is importable (debugging / the equivalence suite).
NO_NUMPY_ENV = "REPRO_NO_NUMPY"


def kernels_enabled() -> bool:
    """Are the vectorized kernels active in this process?"""
    return _np is not None and not os.environ.get(NO_NUMPY_ENV)


def kernel_backend() -> str:
    """``"numpy"`` when the vectorized pre-passes are active, else
    ``"python"`` (the scalar packed loops)."""
    return "numpy" if kernels_enabled() else "python"


class SegmentPlan:
    """The event stream cut into same-thread/same-line data runs.

    ``starts`` holds the first event index of each segment plus a final
    sentinel (the trace length); segment *k* spans
    ``starts[k]:starts[k + 1]``.  ``sync`` marks singleton sync segments.
    ``read_masks``/``write_masks`` hold the OR of the segment's data
    read/write word bits (0 for sync segments).  All four are plain
    lists: the interpreter indexes them tens of thousands of times.
    """

    __slots__ = ("starts", "sync", "read_masks", "write_masks")

    def __init__(
        self,
        starts: List[int],
        sync: List[int],
        read_masks: List[int],
        write_masks: List[int],
    ):
        self.starts = starts
        self.sync = sync
        self.read_masks = read_masks
        self.write_masks = write_masks

    @property
    def n_segments(self) -> int:
        return len(self.starts) - 1


class ResidualView:
    """Compressed columns of the events a detector must still interpret.

    ``threads``/``addresses``/``flags``/``icounts`` hold the residual
    events in original trace order.  ``skipped_events`` counts what the
    prefilter removed; ``skipped_reads`` counts the removed data *reads*
    (the epoch detector reconstitutes its representation statistics from
    it).
    """

    __slots__ = (
        "threads",
        "addresses",
        "flags",
        "icounts",
        "skipped_events",
        "skipped_reads",
    )

    def __init__(
        self, threads, addresses, flags, icounts,
        skipped_events: int, skipped_reads: int,
    ):
        self.threads = threads
        self.addresses = addresses
        self.flags = flags
        self.icounts = icounts
        self.skipped_events = skipped_events
        self.skipped_reads = skipped_reads

    def __len__(self) -> int:
        return len(self.threads)


def _columns(packed):
    """The raw columns as numpy views (no copies)."""
    return (
        _np.frombuffer(packed.thread, dtype=_np.uint16),
        _np.frombuffer(packed.address, dtype=_np.uint64),
        _np.frombuffer(packed.flags, dtype=_np.uint8),
    )


def build_segment_plan(packed, line_mask: int) -> Optional[SegmentPlan]:
    """Segment a trace into data runs for the given cache line mask.

    Returns ``None`` when the kernels are disabled or the line geometry
    does not fit the 64-bit per-word masks (lines over 256 bytes).
    """
    if not kernels_enabled():
        return None
    line_mask &= _U64
    offset_mask = ~line_mask & _U64
    if offset_mask >> 2 >= 64:
        return None  # word bits would overflow a uint64 mask
    n = len(packed.thread)
    if n == 0:
        return SegmentPlan([0], [], [], [])
    thread, address, flags = _columns(packed)
    lines = address & _np.uint64(line_mask)
    sync = (flags & 2) != 0
    is_write = (flags & 1) != 0
    boundary = _np.ones(n, dtype=bool)
    boundary[1:] = (
        (thread[1:] != thread[:-1])
        | (lines[1:] != lines[:-1])
        | sync[1:]
        | sync[:-1]
    )
    seg_starts = _np.flatnonzero(boundary)
    words = (address & _np.uint64(offset_mask)) >> _np.uint64(2)
    wbits = _np.uint64(1) << words
    zero = _np.uint64(0)
    data = ~sync
    read_bits = _np.where(data & ~is_write, wbits, zero)
    write_bits = _np.where(data & is_write, wbits, zero)
    return SegmentPlan(
        seg_starts.tolist() + [n],
        sync[seg_starts].tolist(),
        _np.bitwise_or.reduceat(read_bits, seg_starts).tolist(),
        _np.bitwise_or.reduceat(write_bits, seg_starts).tolist(),
    )


def _shared_flags(keys, thread, data):
    """Boolean per-event array: is the event's ``keys`` value touched in
    data mode by more than one distinct thread?

    Only data events participate in the classification (sync accesses
    live in separate detector tables); sync events come back False.
    """
    n = len(keys)
    data_idx = _np.flatnonzero(data)
    shared = _np.zeros(n, dtype=bool)
    if len(data_idx) == 0:
        return shared
    key_d = keys[data_idx]
    thread_d = thread[data_idx]
    order = _np.lexsort((thread_d, key_d))
    key_s = key_d[order]
    thread_s = thread_d[order]
    group_start = _np.ones(len(key_s), dtype=bool)
    group_start[1:] = key_s[1:] != key_s[:-1]
    starts = _np.flatnonzero(group_start)
    ends = _np.concatenate([starts[1:], [len(key_s)]]) - 1
    # Sorted by thread within each key group: a group is shared iff its
    # first and last threads differ.
    shared_group = thread_s[starts] != thread_s[ends]
    shared_sorted = _np.repeat(
        shared_group, _np.diff(_np.concatenate([starts, [len(key_s)]]))
    )
    shared_data = _np.empty(len(key_s), dtype=bool)
    shared_data[order] = shared_sorted
    shared[data_idx] = shared_data
    return shared


def build_word_residual(packed) -> Optional[ResidualView]:
    """Sync events plus data accesses to words shared between threads.

    Data accesses to single-thread words can neither race nor leave
    history any other thread will ever consult, so the happens-before
    oracles (Ideal, Epoch) interpret only this residual.  Returns
    ``None`` when the kernels are disabled.
    """
    if not kernels_enabled():
        return None
    if len(packed.thread) == 0:
        return ResidualView([], [], [], [], 0, 0)
    thread, address, flags = _columns(packed)
    sync = (flags & 2) != 0
    data = ~sync
    is_write = (flags & 1) != 0
    keep = sync | _shared_flags(address, thread, data)
    icount = _np.frombuffer(packed.icount, dtype=_np.uint64)
    dropped = ~keep
    skipped_reads = int(_np.count_nonzero(dropped & data & ~is_write))
    return ResidualView(
        thread[keep].tolist(),
        address[keep].tolist(),
        flags[keep].tolist(),
        icount[keep].tolist(),
        int(_np.count_nonzero(dropped)),
        skipped_reads,
    )
