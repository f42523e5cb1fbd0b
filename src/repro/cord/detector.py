"""The CORD mechanism (Section 2 of the paper).

One :class:`CordDetector` instance observes one execution trace and
performs, per memory access, what the paper's hardware does:

1. **Fast path** (Section 2.7.2): if the line is locally cached with valid
   data and either the mode's check-filter bit is set or the word's access
   bit is already set at the thread's current clock value, no race check is
   broadcast.
2. **Race check** otherwise: snoop every remote cache's metadata for the
   line.  Entries whose per-word bits conflict with the access yield
   candidate timestamps; the local copy of the main-memory timestamp pair
   is consulted as well (the word's displaced history, if any, was folded
   there -- Figure 6's correctness argument).
3. **Clock updates** (Sections 2.4-2.6): a synchronization read becomes at
   least ``D`` larger than the conflicting write timestamp; every other
   race outcome with ``clk <= ts`` updates to ``ts + 1``.  Updates through
   main-memory timestamps use ``+1``, except that sync *reads* take the
   full ``+D`` window -- required to preserve the no-false-positive
   guarantee when a release write was displaced to memory (see DESIGN.md).
4. **Data race reporting**: a data access is flagged when a cached
   conflicting timestamp satisfies ``clk < ts + D`` -- even if already
   ordered (``clk > ts``), the ordering was not through synchronization
   (Figure 9).  Comparisons against main-memory timestamps are never
   reported (Figure 7), so CORD reports no false positives.
5. **Metadata recording**: the access sets its per-word bit under the
   thread's (possibly updated) clock; allocating a new timestamp entry
   retires the line's oldest, folding it into the main-memory timestamps,
   as does line eviction.
6. **Order recording**: every clock change appends a log entry
   (Section 2.7.1); a sync write additionally increments the clock after
   retiring.

Counters for race-check and memory-timestamp-update broadcasts feed the
timing model (Figure 11's overhead comes almost entirely from this extra
address/timestamp-bus traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cachesim.snoop import SnoopDomain
from repro.clocks.window import SlidingWindowComparator
from repro.common.errors import ConfigError, SimulationError
from repro.cord.coherence import build_coherence_plan
from repro.cord.config import CordConfig
from repro.cord.log import OrderLog
from repro.cord.log import LogEntry as _LogEntry
from repro.cord.recorder import OrderRecorder
from repro.detectors.base import (
    DataRace,
    DetectionOutcome,
    Detector,
    default_thread_to_processor,
)
from repro.meta.linestore import ScalarLineStore
from repro.meta.memts import MainMemoryTimestamps
from repro.meta.walker import CacheWalker
from repro.trace.events import MemoryEvent
from repro.trace.stream import Trace


def _event_row(event, line_mask, set_shift, set_mask):
    """One :meth:`CordDetector._interpret` row from an event object."""
    address = event.address
    line = address & line_mask
    word = (address - line) >> 2
    return (
        event.thread,
        address,
        event.is_write | event.is_sync << 1,
        event.icount,
        line,
        word,
        1 << word,
        (line >> set_shift) & set_mask,
    )


_SPENT = (
    "detector already ran a plan-driven pass (kernel or fused), which "
    "leaves no live cache model to continue from; build a fresh "
    "detector for further events"
)


@dataclass
class CordOutcome(DetectionOutcome):
    """CORD's per-run result: detection outcome plus the order log."""

    log: Optional[OrderLog] = None
    final_clocks: List[int] = field(default_factory=list)

    @property
    def log_bytes(self) -> int:
        return self.log.size_bytes if self.log is not None else 0


class CordDetector(Detector):
    """The combined order-recorder and data race detector."""

    def __init__(self, config: CordConfig, n_threads: int):
        if n_threads > config.n_processors:
            # With several threads per processor their mutual conflicts
            # are invisible to snooping (local metadata is "mine"), which
            # would silently break order-recording soundness.  The paper's
            # hardware time-multiplexes threads and applies the migration
            # rule on every reschedule; model that explicitly with
            # migrate_thread() instead of overcommitting processors.
            raise ConfigError(
                "%d threads exceed %d processors; CORD metadata is "
                "per-processor -- use migrate_thread() to model "
                "time-multiplexing" % (n_threads, config.n_processors)
            )
        self.config = config
        self.name = config.label
        super().__init__()
        self.outcome = CordOutcome(detector_name=self.name)
        self.n_threads = n_threads
        self.clocks: List[int] = [config.initial_clock] * n_threads
        self.recorder = OrderRecorder(n_threads, config.initial_clock)
        self.memory_ts = MainMemoryTimestamps(0)
        self.geometry = config.geometry()
        #: Flat array-backed metadata shared by all caches of the domain;
        #: cache payloads are integer slots into this store.
        self.store = ScalarLineStore(
            config.entries_per_line,
            self.geometry.line_size // 4,
        )
        self.snoop = SnoopDomain(
            config.n_processors,
            self.geometry,
            self.store.alloc,
        )
        # Hot-path constants (the geometry is immutable).  All caches of
        # the domain share one geometry, so a line's set index is the
        # same everywhere; process() indexes the per-cache set dicts
        # directly instead of calling through MetadataCache per snoop.
        self._line_mask = ~(self.geometry.line_size - 1)
        self._entries_per_line = config.entries_per_line
        self._d = config.d
        self._use_mem = config.use_memory_timestamps
        self._cache_sets = [cache._sets for cache in self.snoop.caches]
        self._set_shift = self.snoop.caches[0]._set_shift
        self._set_mask = self.snoop.caches[0]._set_mask
        # Residency hint: line address -> bitmask of processors whose
        # cache *may* hold the line.  Bits are set on fill and cleared on
        # the inline eviction path; drops the cache walker performs are
        # not mirrored, so the mask may overcount -- a race check still
        # verifies each hinted cache with a real lookup, it just skips
        # caches that provably never held the line (about half of all
        # remote lookups in the SPLASH-style workloads).
        self._residency: dict = {}
        self._remote_masks = [
            ((1 << config.n_processors) - 1) ^ (1 << p)
            for p in range(config.n_processors)
        ]
        self.thread_proc = default_thread_to_processor(
            n_threads, config.n_processors
        )
        # Counters feeding the timing model and the figures.
        self.race_checks = 0
        self.fast_hits = 0
        self.memts_orderings = 0
        self.clock_changes = 0
        # The plan-driven packed kernel (and the fused pass) runs from a
        # cold cache model and leaves metadata in pass-local arrays; once
        # spent, the detector refuses further events instead of
        # continuing from an empty cache model.
        self._kernel_spent = False
        # Sweep drivers that know this config's geometry is unique in
        # the sweep clear this; the kernel path then requires an
        # already-cached coherence plan (see process_packed).
        self._plan_amortized = True
        self._walkers: Optional[List[CacheWalker]] = None
        self._window: Optional[SlidingWindowComparator] = None
        if config.use_window:
            self._window = SlidingWindowComparator(config.clock_bits)
            self._walkers = [
                CacheWalker(
                    cache,
                    self.memory_ts,
                    stale_lag=config.walker_stale_lag,
                    period=config.walker_period,
                    store=self.store,
                )
                for cache in self.snoop.caches
            ]
        self.window_violations = 0

    # -- public control -----------------------------------------------------

    def migrate_thread(self, thread: int, processor: int,
                       icount: int) -> None:
        """Move a thread to another processor (Section 2.7.4).

        The thread's clock advances by ``D`` so its own stale timestamps on
        the old processor cannot be mistaken for a conflicting thread's.
        """
        if not 0 <= thread < self.n_threads:
            raise ValueError("no thread %d" % thread)
        if not 0 <= processor < self.config.n_processors:
            raise ValueError("no processor %d" % processor)
        self.thread_proc[thread] = processor
        if not self.config.migration_fix:
            return  # ablation: reproduce the self-race problem
        self._change_clock_before(
            thread, self.clocks[thread] + self.config.d, icount
        )

    # -- the access pipeline ---------------------------------------------------

    def process(self, event: MemoryEvent) -> None:
        """Process one event: a batch of one (see :meth:`process_batch`).

        Calls this class's loop directly: subclasses that override
        ``process_batch`` to wrap ``process`` (the directory detector)
        must not recurse through it.
        """
        # _event_row inlined: the timing models call this once per
        # event, and the helper call alone costs a few percent there.
        address = event.address
        line = address & self._line_mask
        word = (address - line) >> 2
        CordDetector._interpret(self, ((
            event.thread,
            address,
            event.is_write | event.is_sync << 1,
            event.icount,
            line,
            word,
            1 << word,
            (line >> self._set_shift) & self._set_mask,
        ),))

    def process_batch(self, events) -> None:
        """Process event objects: the reference feeder.

        The ladder's scalar tier and the ``REPRO_CROSS_CHECK`` baseline:
        each event's geometry is computed here, independently of the
        trace's cached columns.
        """
        line_mask = self._line_mask
        set_shift = self._set_shift
        set_mask = self._set_mask
        self._interpret(
            _event_row(event, line_mask, set_shift, set_mask)
            for event in events
        )

    def _interpret(self, rows) -> None:
        """The per-access CORD pipeline: the one scalar loop.

        ``rows`` yields ``(thread, address, flags, icount, line, word,
        word_bit, set_index)`` tuples -- ``flags`` in the packed-trace
        encoding (bit 0 write, bit 1 sync), the last four the access's
        cache geometry.  :meth:`process` and :meth:`process_batch` build
        them from event objects, :meth:`process_packed` zips them from
        the trace's columns; the plan-driven kernel and the fused pass
        are checked against this loop (kernel- and packed-equivalence
        suites, golden fixtures, ``REPRO_CROSS_CHECK``).

        The hottest loop in the repository: everything invariant across
        events -- the store's columns, the cache set dicts, geometry
        constants -- is bound to locals once, outside the loop.  Keep
        per-call setup out of here too: :meth:`process` calls it once
        per event (the timing models drive it that way).
        """
        if self._kernel_spent:
            raise SimulationError(_SPENT)
        d = self._d
        use_mem = self._use_mem
        store = self.store
        entries_per_line = self._entries_per_line
        tsa = store.ts
        rma = store.rmask
        wma = store.wmask
        cnt = store.count
        flg = store.flags
        fclock = store.fclock
        cache_sets = self._cache_sets
        residency = self._residency
        remote_masks = self._remote_masks
        clocks = self.clocks
        thread_proc = self.thread_proc
        frag_start = self.recorder._fragment_start
        frag_clock = self.recorder._fragment_clock
        log_append = self.recorder.log.entries.append
        memts = self.memory_ts
        record_race = self.outcome.record_race
        walkers = self._walkers
        fast_hits = 0
        race_checks = 0
        memts_orderings = 0
        clock_changes = 0

        for thread, address, eflags, icount, line, word, wbit, \
                set_index in rows:
            processor = thread_proc[thread]
            clk0 = clocks[thread]
            local_set = cache_sets[processor][set_index]

            # Instruction-count overflow guard (Section 2.7.1).  Fragment
            # starts are non-negative, so the cheap first test settles
            # the common case.
            if icount >= 0xFFFFFFFF \
                    and icount - frag_start[thread] >= 0xFFFFFFFF:
                self._change_clock_before(thread, clk0 + 1, icount)
                clk0 = clocks[thread]

            local = local_set.get(line)
            is_write = eflags & 1
            is_sync = eflags & 2
            # Fast path (Section 2.7.2), cheapest test first: one flags
            # byte answers data-valid, write-permission, and the filter
            # bits before any timestamp is touched.
            fast = False
            if local is not None:
                fl = flg[local]
                # Synchronization reads always check: Section 2.6's rule
                # -- the thread's clock must become at least D larger
                # than the sync variable's latest write timestamp -- is
                # unconditional, and that timestamp may live only in the
                # memory-timestamp pair.  A write additionally needs
                # coherence write permission: a remote read since our
                # last write makes the next write a bus upgrade, a
                # race-check opportunity hardware cannot skip.
                if is_write:
                    eligible = fl & 12 == 12  # valid + write permission
                    fbit = 2
                else:
                    eligible = fl & 4 and not is_sync
                    fbit = 1
                if eligible:
                    if fl & fbit and fclock[local] == clk0:
                        fast = True
                    else:
                        # Word access bit already set at this clock?
                        # Newest entry first -- it matches nearly always.
                        base = local * entries_per_line
                        n = cnt[local]
                        if n and tsa[base] == clk0:
                            mask = wma[base] if is_write else rma[base]
                            fast = bool((mask >> word) & 1)
                        elif n > 1:
                            for e in range(base + 1, base + n):
                                if tsa[e] == clk0:
                                    mask = (
                                        wma[e] if is_write else rma[e]
                                    )
                                    fast = bool((mask >> word) & 1)
                                    break

            if fast:
                # No clock change is possible, and the flags byte
                # provably keeps its value (data-valid -- and write
                # permission for writes -- were preconditions; filters
                # are only granted on clean race checks): only the MRU
                # touch and the word bit at clk0 remain.
                fast_hits += 1
                slot = local
                clock = clk0
                local_set[line] = local_set.pop(line)  # move to MRU
            else:
                # Race check (the slow path).
                new_clock = clk0
                race_checks += 1
                clean_line = True
                reported = False
                # Ascending-bit iteration over caches that may hold the
                # line (same visit order as scanning all processors).
                sharers = residency.get(line, 0) & remote_masks[processor]
                while sharers:
                    low = sharers & -sharers
                    sharers ^= low
                    remote = low.bit_length() - 1
                    rslot = cache_sets[remote][set_index].get(line)
                    if rslot is None:
                        continue  # stale hint (walker drop)
                    n_resident = cnt[rslot]
                    if not n_resident:
                        # Nothing to conflict with, fold, or revoke: a
                        # slot can only be empty right after a write
                        # upgrade, which also cleared every flag bit.
                        continue
                    base = rslot * entries_per_line
                    # One pass gathers both the line-level conflict
                    # verdict (check-filter establishment) and the
                    # per-word candidate timestamps, newest first.
                    candidates = None
                    if is_write:
                        for e in range(base, base + n_resident):
                            rm = rma[e]
                            wm = wma[e]
                            if rm or wm:
                                clean_line = False
                                if (rm | wm) & wbit:
                                    if candidates is None:
                                        candidates = [tsa[e]]
                                    else:
                                        candidates.append(tsa[e])
                    else:
                        for e in range(base, base + n_resident):
                            wm = wma[e]
                            if wm:
                                clean_line = False
                                if wm & wbit:
                                    if candidates is None:
                                        candidates = [tsa[e]]
                                    else:
                                        candidates.append(tsa[e])
                    if is_write:
                        # Write upgrade: revoke the remote filters,
                        # retire its history into the memory timestamps,
                        # and invalidate its data copy.  Keeping the
                        # stale access bits would let a later refetch
                        # fast-path past a conflict (found by the
                        # replay-equivalence property test).
                        if use_mem:
                            for e in range(base, base + n_resident):
                                memts.fold_raw(
                                    tsa[e], rma[e] != 0, wma[e] != 0
                                )
                        cnt[rslot] = 0
                        # Clear read/write filters, data-valid, and
                        # write permission in one mask.
                        flg[rslot] &= 0xF0
                    else:
                        # A remote read revokes write filter+permission.
                        flg[rslot] &= 0xF5
                    if candidates is None:
                        continue
                    for ts in candidates:
                        if is_sync:
                            # Any sync access: at least D past the
                            # conflicting sync timestamp (Section 2.6's
                            # rule).  Writes take the same +D jump as
                            # reads: the ground-truth HB relation orders
                            # same-variable sync write pairs, and the
                            # scalar clock must over-order every edge it
                            # honors or a later data comparison inside
                            # the D window misreports a race.
                            if ts + d > new_clock:
                                new_clock = ts + d
                        else:
                            if clk0 <= ts and ts + 1 > new_clock:
                                new_clock = ts + 1
                            if clk0 < ts + d and not reported:
                                reported = True
                                record_race(
                                    DataRace(
                                        access=(thread, icount),
                                        address=address,
                                        other_thread=None,
                                        detail="clk=%d ts=%d P%d"
                                        % (clk0, ts, remote),
                                    )
                                )
                # Main-memory timestamp comparison (never reported as a
                # race).  Sync reads take the full +D window so that
                # synchronization whose release write was displaced to
                # memory still suppresses later false data races (the
                # Figure 7 update, strengthened by Section 2.6's rule);
                # everything else takes the +1 ordering update.  (The
                # snoop path above gives sync *writes* the +D jump too;
                # here the summary is global and starts at 0, so a +D
                # write rule would jump fresh threads' clocks on
                # untouched sync variables.)
                if use_mem:
                    if is_write:
                        mem_ts = memts.read_ts
                        if memts.write_ts > mem_ts:
                            mem_ts = memts.write_ts
                    else:
                        mem_ts = memts.write_ts
                    if is_sync and not is_write:
                        if mem_ts + d > new_clock:
                            new_clock = mem_ts + d
                            memts_orderings += 1
                    elif clk0 <= mem_ts:
                        if mem_ts + 1 > new_clock:
                            new_clock = mem_ts + 1
                            memts_orderings += 1

                if new_clock != clk0:
                    # _change_clock_before inlined: flush the completed
                    # fragment (pre-instruction boundary -- the
                    # triggering access runs at the new clock, so the
                    # fragment excludes it).  OrderLog.append's range
                    # checks are vacuous here: boundaries are monotone
                    # and the overflow guard above ticks the clock
                    # before a count can reach 2^32.
                    log_append(
                        _LogEntry(
                            frag_clock[thread],
                            thread,
                            icount - frag_start[thread],
                        )
                    )
                    frag_clock[thread] = new_clock
                    frag_start[thread] = icount
                    clocks[thread] = new_clock
                    clock_changes += 1

                # Allocate or MRU-touch the local line (inlined
                # MetadataCache insert; dict order doubles as LRU order).
                if local is None:
                    cache = self.snoop.caches[processor]
                    slot = store.alloc()
                    local_set[line] = slot
                    cache.insertions += 1
                    pbit = 1 << processor
                    residency[line] = residency.get(line, 0) | pbit
                    self._on_line_filled(processor, line)
                    if len(local_set) > cache._capacity:
                        victim_line = next(iter(local_set))
                        victim_slot = local_set.pop(victim_line)
                        cache.evictions += 1
                        remaining = residency.get(victim_line, 0) & ~pbit
                        if remaining:
                            residency[victim_line] = remaining
                        else:
                            residency.pop(victim_line, None)
                        if use_mem:
                            vbase = victim_slot * entries_per_line
                            for e in range(
                                vbase, vbase + cnt[victim_slot]
                            ):
                                memts.fold_raw(
                                    tsa[e], rma[e] != 0, wma[e] != 0
                                )
                        self._on_line_evicted(processor, victim_line)
                        store.free(victim_slot)
                else:
                    slot = local
                    local_set[line] = local_set.pop(line)  # move to MRU
                clock = new_clock
                fl = flg[slot] | 4  # data valid
                if is_write:
                    # Remote copies were invalidated (and their metadata
                    # retired) during the snoop above; the local copy is
                    # now exclusive.
                    fl |= 8
                if clean_line:
                    # Check filter granted at the (possibly updated)
                    # clock; any later clock change invalidates it.
                    fl |= 3 if is_write else 1
                    fclock[slot] = clock
                flg[slot] = fl

            # Record the access: the word joins an entry already at this
            # clock value, newest entry first (accesses cluster within
            # an epoch, so the front entry matches nearly always).
            base = slot * entries_per_line
            n = cnt[slot]
            if n and tsa[base] == clock:
                if is_write:
                    wma[base] |= wbit
                else:
                    rma[base] |= wbit
            else:
                merged = False
                if n > 1:
                    for e in range(base + 1, base + n):
                        if tsa[e] == clock:
                            if is_write:
                                wma[e] |= wbit
                            else:
                                rma[e] |= wbit
                            merged = True
                            break
                if not merged:
                    # Insertion path: ScalarLineStore.record_access with
                    # its merge scan elided (the scan above already
                    # failed).  A full line retires its oldest entry
                    # into the main-memory timestamps.
                    if n == entries_per_line:
                        last = base + n - 1
                        if use_mem:
                            memts.fold_raw(
                                tsa[last], rma[last] != 0, wma[last] != 0
                            )
                        shift_from = base + n - 1
                    else:
                        cnt[slot] = n + 1
                        shift_from = base + n
                    for e in range(shift_from, base, -1):
                        tsa[e] = tsa[e - 1]
                        rma[e] = rma[e - 1]
                        wma[e] = wma[e - 1]
                    tsa[base] = clock
                    if is_write:
                        rma[base] = 0
                        wma[base] = wbit
                    else:
                        rma[base] = wbit
                        wma[base] = 0

            # Post-retirement increment after synchronization writes
            # (recorder.clock_changed_after inlined; post-instruction
            # boundary, so the completed fragment includes the write).
            if eflags & 3 == 3:
                boundary = icount + 1
                log_append(
                    _LogEntry(
                        frag_clock[thread],
                        thread,
                        boundary - frag_start[thread],
                    )
                )
                new_clock = clock + 1
                frag_clock[thread] = new_clock
                frag_start[thread] = boundary
                clocks[thread] = new_clock
                clock_changes += 1

            if walkers is not None:
                self._run_walker(processor)

        self.fast_hits += fast_hits
        self.race_checks += race_checks
        self.memts_orderings += memts_orderings
        self.clock_changes += clock_changes

    def process_packed(self, packed) -> None:
        """The access pipeline over raw trace columns.

        Dispatches to the plan-driven kernel when the trace's analysis
        plans are available (numpy present, plain-geometry line masks,
        no cache walker, no instruction count near the overflow guard)
        and this detector starts cold (no metadata from earlier events
        -- the coherence plan replays the trace from an empty cache
        model); otherwise :meth:`_interpret` reads the trace's hot and
        geometry columns.  Both paths produce byte-identical outcomes --
        reports, order log, and counters -- to :meth:`process_batch` on
        the object view (locked in by the packed- and
        kernel-equivalence suites).
        """
        if self.__class__.process_batch is not CordDetector.process_batch:
            # Subclasses that wrap process() per event (the directory
            # detector's traffic accounting) must keep their hooks:
            # feed them lazily materialized events instead.
            self.process_batch(packed.iter_events())
            return
        if self._kernel_spent:
            raise SimulationError(_SPENT)
        coh = None
        if (
            self._walkers is None
            # The walker ticks once per interpreted event; collapsing a
            # run would starve it, so window mode stays on the scalar
            # per-event loop.
            and not self.store.count
            # The kernel keeps per-slot metadata in pass-local arrays
            # (finish() only reads counters, clocks, and the recorder),
            # so it requires -- and does not leave behind -- a live
            # cache model; warm detectors take the scalar loop.
            and self.__class__._on_line_filled
            is CordDetector._on_line_filled
            and self.__class__._on_line_evicted
            is CordDetector._on_line_evicted
        ):
            plan = packed.segment_plan(self._line_mask)
            if plan is not None and not self._kernel_unsafe(packed):
                coh_key = self._coherence_key()
                coh = packed.derived_cached(coh_key)
                # Building a coherence plan nobody else will reuse costs
                # about as much as the scalar pass it would accelerate;
                # a sweep driver that knows this geometry appears once
                # (see injection.campaign) clears the hint and we stay
                # scalar.
                if coh is None and self._plan_amortized:
                    line_mask = self._line_mask
                    set_shift = self._set_shift
                    set_mask = self._set_mask
                    capacity = self.snoop.caches[0]._capacity
                    coh = packed.derived(
                        coh_key,
                        lambda: build_coherence_plan(
                            packed,
                            plan,
                            line_mask,
                            set_shift,
                            set_mask,
                            capacity,
                            self.config.n_processors,
                            self.thread_proc,
                        ),
                    )
        if coh is None:
            self._interpret(zip(
                *packed.hot_columns(),
                *packed.geometry_columns(
                    self._line_mask, self._set_shift, self._set_mask
                ),
            ))
            return
        self._process_packed_kernel(packed, plan, coh)
        self._kernel_spent = True

    def _coherence_key(self):
        """The per-trace cache key of this config's coherence plan.

        Everything the replay depends on: geometry, capacity, processor
        count, and the thread placement -- and nothing clock- or
        D-shaped.  Must stay in sync across every builder call site
        (kernel dispatch, the fused sweep pass, the campaign's sharing
        marker); they share it by calling this.
        """
        return (
            "coh",
            self._line_mask & 0xFFFFFFFFFFFFFFFF,
            self._set_shift,
            self._set_mask,
            self.snoop.caches[0]._capacity,
            self.config.n_processors,
            tuple(self.thread_proc),
        )

    def _kernel_unsafe(self, packed) -> bool:
        """Traces the segment kernel must not collapse.

        The instruction-count overflow guard (Section 2.7.1) has to be
        evaluated before every event; such traces (counts at 2^32 - 1
        and beyond) take :meth:`_interpret`, which carries the guard
        inline.
        """
        icounts = packed.hot_columns()[3]
        return bool(icounts) and max(icounts) >= 0xFFFFFFFF

    def _process_packed_kernel(self, packed, plan, coh) -> None:
        """Plan-driven interpretation: coherence precomputed, only the
        configuration-dependent state simulated.

        Two plans, both cached on the trace and shared by every
        configuration of a sweep, strip the per-pass loop down to what
        actually varies with the configuration:

        * the segment plan (:meth:`PackedTrace.segment_plan`) cuts the
          stream into maximal same-thread/same-line data runs with
          their read/write word masks pre-ORed;
        * the coherence plan (:mod:`repro.cord.coherence`) replays the
          cache machine once and hands the pass, per event: the local
          metadata slot, hit and fast-path-eligibility flags, the
          resolved remote candidate slots in snoop order, and the
          eviction victims.

        The pass therefore performs no cache-dictionary operations, no
        MRU bookkeeping, and no residency math; per-slot metadata
        (timestamp entries, check filters) lives in pass-local arrays
        indexed by plan slots, and the memory-timestamp pair is carried
        in locals and written back at the end.  Runs whose events are
        all eligible collapse to two mask ORs when a filter or a
        recorded entry at the current clock covers their masks -- the
        net effect of :meth:`_interpret`'s fast-path tail replayed
        ``len(run)`` times; a run that fails interprets events until a
        clean race check grants the filter, then retries the remainder.

        Never entered in window mode (the walker must tick per event),
        near instruction-count overflow (:meth:`_kernel_unsafe`), or on
        a warm detector (the coherence plan assumes a cold cache
        model); outputs are byte-identical to :meth:`_interpret`,
        counters included (kernel-equivalence suite).

        Exceptions raised here (the ``kernel_raise`` chaos fault, or a
        real kernel bug) are caught by the degradation ladder
        (:mod:`repro.resilience.guard`), which rebuilds the detector and
        re-runs the configuration on a slower tier.
        """
        from repro.resilience import faults

        if faults.active() and faults.fire("kernel_raise"):
            raise RuntimeError(
                "chaos: injected kernel-path fault (kernel_raise)"
            )
        d = self._d
        use_mem = self._use_mem
        entries_per_line = self._entries_per_line
        clocks = self.clocks
        frag_start = self.recorder._fragment_start
        frag_clock = self.recorder._fragment_clock
        log_append = self.recorder.log.entries.append
        memts = self.memory_ts
        record_race = self.outcome.record_race
        fast_hits = 0
        race_checks = 0
        memts_orderings = 0
        clock_changes = 0

        threads, addresses, flag_col, icounts = packed.hot_columns()
        wbits = packed.geometry_columns(
            self._line_mask, self._set_shift, self._set_mask
        )[2]
        starts = plan.starts
        seg_rmasks = plan.read_masks
        seg_wmasks = plan.write_masks
        slots = coh.slots
        cands_col = coh.cands
        evicts = coh.evicts
        collapse_end = coh.collapse_end

        # Pass-local metadata, indexed by plan slots: the flat-store
        # layout (entries_per_line entries per slot, newest first) with
        # the flags byte reduced to its per-configuration part -- the
        # check-filter bits (1 = read, 2 = write).  Data-valid and
        # write-permission live in the plan's eligibility bits.
        n_entries = coh.n_slots * entries_per_line
        tsa = [0] * n_entries
        rma = [0] * n_entries
        wma = [0] * n_entries
        cnt = [0] * coh.n_slots
        filters = bytearray(coh.n_slots)
        fclockp = [0] * coh.n_slots

        # The memory-timestamp pair in locals (fold_raw inlined; folds
        # and update_broadcasts must match _interpret exactly).
        mem_read = memts.read_ts
        mem_write = memts.write_ts
        mem_folds = memts.folds
        mem_bcasts = memts.update_broadcasts

        evbs = coh.evb
        for k in range(len(starts) - 1):
            i = starts[k]
            j = starts[k + 1]
            thread = threads[i]
            # The slot is segment-constant: the first access makes the
            # line MRU, so it cannot be evicted by the run's own misses
            # (there are none after the first event).
            sl = slots[i]
            idx = i
            # Attempt collapse only while the remainder plausibly *is*
            # all-fast: on segment entry when the plan marks every
            # event eligible, and again after an interpreted event
            # whose clean race check just granted the check filter.
            attempt = j - i >= 2 and collapse_end[i] == j
            while idx < j:
                if attempt:
                    attempt = False
                    # Collapse attempt for [idx, j).  On the first try
                    # the plan's pre-ORed masks apply; after an
                    # interpreted event the remainder's masks are
                    # re-ORed (the interpreted bits may now live under
                    # a different clock and must not be re-recorded).
                    if idx == i:
                        rmask_seg = seg_rmasks[k]
                        wmask_seg = seg_wmasks[k]
                    else:
                        rmask_seg = 0
                        wmask_seg = 0
                        for r in range(idx, j):
                            if flag_col[r] & 1:
                                wmask_seg |= wbits[r]
                            else:
                                rmask_seg |= wbits[r]
                    # Every event in [idx, j) is eligible (plan
                    # precondition); the run is all-fast when a filter
                    # bit at the current clock or an entry recorded
                    # under it covers each access mode's mask.
                    clk0 = clocks[thread]
                    fl = filters[sl]
                    base = sl * entries_per_line
                    n_ent = cnt[sl]
                    e_at = -1
                    if n_ent:
                        if tsa[base] == clk0:
                            e_at = base
                        else:
                            for e in range(base + 1, base + n_ent):
                                if tsa[e] == clk0:
                                    e_at = e
                                    break
                    filters_now = fclockp[sl] == clk0
                    if (
                        not wmask_seg
                        or (filters_now and fl & 2)
                        or (e_at >= 0 and not wmask_seg & ~wma[e_at])
                    ) and (
                        not rmask_seg
                        or (filters_now and fl & 1)
                        or (e_at >= 0 and not rmask_seg & ~rma[e_at])
                    ):
                        # Whole remainder is fast: OR the masks under
                        # clk0 (the net effect of the scalar fast tail
                        # replayed per event), done.
                        fast_hits += j - idx
                        if e_at < 0:
                            if n_ent == entries_per_line:
                                last = base + n_ent - 1
                                if use_mem:
                                    mem_folds += 1
                                    changed = False
                                    ts = tsa[last]
                                    if rma[last] and ts > mem_read:
                                        mem_read = ts
                                        changed = True
                                    if wma[last] and ts > mem_write:
                                        mem_write = ts
                                        changed = True
                                    if changed:
                                        mem_bcasts += 1
                                shift_from = last
                            else:
                                cnt[sl] = n_ent + 1
                                shift_from = base + n_ent
                            for e in range(shift_from, base, -1):
                                tsa[e] = tsa[e - 1]
                                rma[e] = rma[e - 1]
                                wma[e] = wma[e - 1]
                            tsa[base] = clk0
                            rma[base] = rmask_seg
                            wma[base] = wmask_seg
                        else:
                            rma[e_at] |= rmask_seg
                            wma[e_at] |= wmask_seg
                        break

                # Interpret one event (the scalar pipeline body, with
                # the cache model replaced by plan lookups; no overflow
                # guard -- _kernel_unsafe excluded it -- and no
                # walker).
                cur = idx
                idx += 1
                eflags = flag_col[cur]
                evb = evbs[cur]
                wbit = wbits[cur]
                clk0 = clocks[thread]
                is_write = eflags & 1
                if evb & 1:  # eligible: valid line, mode allowed
                    fast = False
                    fl = filters[sl]
                    if fl & (2 if is_write else 1) \
                            and fclockp[sl] == clk0:
                        fast = True
                    else:
                        # Word access bit already set at this clock?
                        # Newest entry first -- it matches nearly
                        # always.
                        base = sl * entries_per_line
                        n = cnt[sl]
                        if n and tsa[base] == clk0:
                            mask = wma[base] if is_write else rma[base]
                            fast = bool(mask & wbit)
                        elif n > 1:
                            for e in range(base + 1, base + n):
                                if tsa[e] == clk0:
                                    mask = (
                                        wma[e] if is_write else rma[e]
                                    )
                                    fast = bool(mask & wbit)
                                    break
                    if fast:
                        fast_hits += 1
                        base = sl * entries_per_line
                        n = cnt[sl]
                        if n and tsa[base] == clk0:
                            if is_write:
                                wma[base] |= wbit
                            else:
                                rma[base] |= wbit
                        else:
                            merged = False
                            if n > 1:
                                for e in range(base + 1, base + n):
                                    if tsa[e] == clk0:
                                        if is_write:
                                            wma[e] |= wbit
                                        else:
                                            rma[e] |= wbit
                                        merged = True
                                        break
                            if not merged:
                                if n == entries_per_line:
                                    last = base + n - 1
                                    if use_mem:
                                        mem_folds += 1
                                        changed = False
                                        ts = tsa[last]
                                        if rma[last] and ts > mem_read:
                                            mem_read = ts
                                            changed = True
                                        if wma[last] \
                                                and ts > mem_write:
                                            mem_write = ts
                                            changed = True
                                        if changed:
                                            mem_bcasts += 1
                                    shift_from = base + n - 1
                                else:
                                    cnt[sl] = n + 1
                                    shift_from = base + n
                                for e in range(shift_from, base, -1):
                                    tsa[e] = tsa[e - 1]
                                    rma[e] = rma[e - 1]
                                    wma[e] = wma[e - 1]
                                tsa[base] = clk0
                                if is_write:
                                    rma[base] = 0
                                    wma[base] = wbit
                                else:
                                    rma[base] = wbit
                                    wma[base] = 0
                        # Post-retirement increment after sync writes.
                        if eflags & 3 == 3:
                            boundary = icounts[cur] + 1
                            log_append(
                                _LogEntry(
                                    frag_clock[thread],
                                    thread,
                                    boundary - frag_start[thread],
                                )
                            )
                            new_clock = clk0 + 1
                            frag_clock[thread] = new_clock
                            frag_start[thread] = boundary
                            clocks[thread] = new_clock
                            clock_changes += 1
                        continue

                # Race check (the slow path).  Remote candidates come
                # resolved from the plan, in snoop (ascending
                # processor) order; remote coherence flags are plan
                # state, so only the per-configuration effects remain:
                # entry invalidation, filter revocation, and the
                # timestamp comparisons.
                is_sync = eflags & 2
                new_clock = clk0
                race_checks += 1
                clean_line = True
                reported = False
                cand = cands_col[cur]
                if cand is not None:
                    for rslot, remote in cand:
                        n_resident = cnt[rslot]
                        base = rslot * entries_per_line
                        candidates = None
                        if is_write:
                            for e in range(base, base + n_resident):
                                rm = rma[e]
                                wm = wma[e]
                                if rm or wm:
                                    clean_line = False
                                    if (rm | wm) & wbit:
                                        if candidates is None:
                                            candidates = [tsa[e]]
                                        else:
                                            candidates.append(tsa[e])
                            if use_mem:
                                for e in range(
                                    base, base + n_resident
                                ):
                                    mem_folds += 1
                                    changed = False
                                    ts = tsa[e]
                                    if rma[e] and ts > mem_read:
                                        mem_read = ts
                                        changed = True
                                    if wma[e] and ts > mem_write:
                                        mem_write = ts
                                        changed = True
                                    if changed:
                                        mem_bcasts += 1
                            cnt[rslot] = 0
                            filters[rslot] = 0
                        else:
                            for e in range(base, base + n_resident):
                                wm = wma[e]
                                if wm:
                                    clean_line = False
                                    if wm & wbit:
                                        if candidates is None:
                                            candidates = [tsa[e]]
                                        else:
                                            candidates.append(tsa[e])
                            # Revoke the remote write filter.
                            filters[rslot] &= 1
                        if candidates is None:
                            continue
                        for ts in candidates:
                            if is_sync:
                                # Sync read or write: at least D past
                                # the conflicting sync timestamp (see
                                # _interpret for the write rationale).
                                if ts + d > new_clock:
                                    new_clock = ts + d
                            else:
                                if clk0 <= ts and ts + 1 > new_clock:
                                    new_clock = ts + 1
                                if clk0 < ts + d and not reported:
                                    reported = True
                                    record_race(
                                        DataRace(
                                            access=(
                                                thread, icounts[cur]
                                            ),
                                            address=addresses[cur],
                                            other_thread=None,
                                            detail="clk=%d ts=%d P%d"
                                            % (clk0, ts, remote),
                                        )
                                    )
                if use_mem:
                    if is_write:
                        mem_ts = mem_read
                        if mem_write > mem_ts:
                            mem_ts = mem_write
                    else:
                        mem_ts = mem_write
                    if is_sync and not is_write:
                        if mem_ts + d > new_clock:
                            new_clock = mem_ts + d
                            memts_orderings += 1
                    elif clk0 <= mem_ts:
                        if mem_ts + 1 > new_clock:
                            new_clock = mem_ts + 1
                            memts_orderings += 1

                if new_clock != clk0:
                    icount = icounts[cur]
                    log_append(
                        _LogEntry(
                            frag_clock[thread],
                            thread,
                            icount - frag_start[thread],
                        )
                    )
                    frag_clock[thread] = new_clock
                    frag_start[thread] = icount
                    clocks[thread] = new_clock
                    clock_changes += 1

                # Record the access in local metadata.  On a miss the
                # plan already assigned the slot (insertion, MRU, and
                # residency are its business); reset the slot's
                # per-configuration state -- store.alloc() zeroes count
                # and flags -- and retire the eviction victim's
                # entries.
                if not evb & 2:
                    victim = evicts.get(cur)
                    if victim is not None:
                        if use_mem:
                            vbase = victim * entries_per_line
                            for e in range(
                                vbase, vbase + cnt[victim]
                            ):
                                mem_folds += 1
                                changed = False
                                ts = tsa[e]
                                if rma[e] and ts > mem_read:
                                    mem_read = ts
                                    changed = True
                                if wma[e] and ts > mem_write:
                                    mem_write = ts
                                    changed = True
                                if changed:
                                    mem_bcasts += 1
                        cnt[victim] = 0
                        filters[victim] = 0
                    cnt[sl] = 0
                    filters[sl] = 0
                clock = new_clock  # == clocks[thread] on both branches
                if clean_line:
                    filters[sl] |= 3 if is_write else 1
                    fclockp[sl] = clock
                base = sl * entries_per_line
                n = cnt[sl]
                if n and tsa[base] == clock:
                    if is_write:
                        wma[base] |= wbit
                    else:
                        rma[base] |= wbit
                else:
                    merged = False
                    if n > 1:
                        for e in range(base + 1, base + n):
                            if tsa[e] == clock:
                                if is_write:
                                    wma[e] |= wbit
                                else:
                                    rma[e] |= wbit
                                merged = True
                                break
                    if not merged:
                        if n == entries_per_line:
                            last = base + n - 1
                            if use_mem:
                                mem_folds += 1
                                changed = False
                                ts = tsa[last]
                                if rma[last] and ts > mem_read:
                                    mem_read = ts
                                    changed = True
                                if wma[last] and ts > mem_write:
                                    mem_write = ts
                                    changed = True
                                if changed:
                                    mem_bcasts += 1
                            shift_from = base + n - 1
                        else:
                            cnt[sl] = n + 1
                            shift_from = base + n
                        for e in range(shift_from, base, -1):
                            tsa[e] = tsa[e - 1]
                            rma[e] = rma[e - 1]
                            wma[e] = wma[e - 1]
                        tsa[base] = clock
                        if is_write:
                            rma[base] = 0
                            wma[base] = wbit
                        else:
                            rma[base] = wbit
                            wma[base] = 0

                # Post-retirement increment after synchronization
                # writes.
                if is_sync and is_write:
                    boundary = icounts[cur] + 1
                    log_append(
                        _LogEntry(
                            frag_clock[thread],
                            thread,
                            boundary - frag_start[thread],
                        )
                    )
                    new_clock = clock + 1
                    frag_clock[thread] = new_clock
                    frag_start[thread] = boundary
                    clocks[thread] = new_clock
                    clock_changes += 1
                elif clean_line and j - idx >= 2 \
                        and collapse_end[idx] == j:
                    # A clean race check granted the check filter at
                    # the thread's (possibly updated) clock: retry the
                    # collapse on the remainder.
                    attempt = True

        memts.read_ts = mem_read
        memts.write_ts = mem_write
        memts.folds = mem_folds
        memts.update_broadcasts = mem_bcasts
        caches = self.snoop.caches
        for p in range(len(caches)):
            caches[p].insertions += coh.insertions[p]
            caches[p].evictions += coh.evictions[p]
        self.fast_hits += fast_hits
        self.race_checks += race_checks
        self.memts_orderings += memts_orderings
        self.clock_changes += clock_changes

    # -- helpers ---------------------------------------------------------------

    def _on_line_evicted(self, processor: int, line: int) -> None:
        """Hook for subclasses tracking residency (directory protocols)."""

    def _on_line_filled(self, processor: int, line: int) -> None:
        """Hook for subclasses tracking residency (directory protocols)."""

    def _change_clock_before(self, thread: int, new_clock: int,
                             icount: int) -> None:
        self.recorder.clock_changed_before(thread, new_clock, icount)
        self.clocks[thread] = new_clock
        self.clock_changes += 1

    def _run_walker(self, processor: int) -> None:
        walker = self._walkers[processor]
        max_clock = max(self.clocks)
        if walker.tick(max_clock):
            headroom = walker.window_headroom(
                max_clock, self._window.window
            )
            if headroom is not None and headroom <= 0:
                # The paper's stall condition; never observed in practice.
                self.window_violations += 1

    # -- completion ---------------------------------------------------------------

    def run_with_migrations(
        self, trace: Trace, schedule
    ) -> "CordOutcome":
        """Process a trace while applying scheduled thread migrations.

        Args:
            trace: the execution to analyze.
            schedule: iterable of ``(event_index, thread, processor)``
                triples, sorted by event index; each migration is applied
                *before* the event at that index is processed, modeling
                the OS rescheduling the thread between instructions.
        """
        pending = sorted(schedule)
        cursor = 0
        per_thread_icount = [0] * self.n_threads
        for event in trace.events:
            while cursor < len(pending) and \
                    pending[cursor][0] <= event.index:
                _, thread, processor = pending[cursor]
                self.migrate_thread(
                    thread, processor, per_thread_icount[thread]
                )
                cursor += 1
            self.process(event)
            per_thread_icount[event.thread] = event.icount + 1
        return self.finish(trace)

    def finish(self, trace: Trace) -> CordOutcome:
        self.outcome.log = self.recorder.finalize(trace.final_icounts)
        self.outcome.final_clocks = list(self.clocks)
        self.outcome.counters.update(
            race_checks=self.race_checks,
            fast_hits=self.fast_hits,
            memts_orderings=self.memts_orderings,
            memts_update_broadcasts=self.memory_ts.update_broadcasts,
            clock_changes=self.clock_changes,
            log_entries=len(self.outcome.log),
            log_bytes=self.outcome.log.size_bytes,
            evictions=self.snoop.total_evictions(),
            window_violations=self.window_violations,
        )
        return self.outcome
