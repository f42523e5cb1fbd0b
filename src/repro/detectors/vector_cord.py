"""Vector-clock detectors with CORD's buffering limits.

These are the paper's comparison configurations (Section 4.3): vector
clocks -- so the happens-before test itself is exact -- but data-access
histories live in CORD-shaped cache metadata: at most two timestamp entries
per line with per-word access bits, held only for lines resident in a
finite per-processor cache.  Displaced history is simply lost (the vector
schemes have no main-memory timestamp; like ReEnact they miss all races
through non-cached variables, as the paper notes in Section 2.5).

=============  =========================================
Configuration  Geometry
=============  =========================================
``InfCache``   unlimited capacity, 2 entries per line
``L2Cache``    32 KB per processor, 2 entries per line
``L1Cache``    8 KB per processor, 2 entries per line
=============  =========================================

Synchronization-induced ordering is tracked exactly (the unbounded
per-sync-variable tables of :class:`repro.detectors.hb.HBState`, shared
with the Ideal oracle), isolating the variable under study -- the *data
history* limitation -- from incidental sync-metadata displacement.  This
modeling choice is recorded in DESIGN.md.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.snoop import SnoopDomain
from repro.detectors.base import (
    DataRace,
    Detector,
    default_thread_to_processor,
)
from repro.detectors.hb import HBDetector, dominates
from repro.meta.linemeta import LineMeta, TimestampEntry


class LimitedVectorDetector(HBDetector):
    """Vector clocks over CORD-limited access histories.

    Args:
        n_threads: thread count of the traces to be analyzed.
        geometry: per-processor metadata cache geometry
            (:meth:`CacheGeometry.infinite` for ``InfCache``).
        n_processors: processors in the snoop domain (paper: 4).
        entries_per_line: timestamp entries per line (paper: 2).
        label: configuration name for reports.
    """

    def __init__(
        self,
        n_threads: int,
        geometry: CacheGeometry,
        n_processors: int = 4,
        entries_per_line: int = 2,
        label: Optional[str] = None,
    ):
        self.name = label or "Vector(%s)" % (
            "Inf" if geometry.is_infinite else "%dB" % geometry.size
        )
        super().__init__(n_threads)
        self.geometry = geometry
        self._entries_per_line = entries_per_line
        self._snoop = SnoopDomain(
            n_processors, geometry, lambda: LineMeta(entries_per_line)
        )
        self._thread_proc = default_thread_to_processor(
            n_threads, n_processors
        )

    def process_packed(self, packed) -> None:
        """One pass over the trace's segment plan; no event objects.

        The plan (:meth:`PackedTrace.segment_plan`, shared with CORD's
        kernel for the same line size) cuts the stream into sync
        singletons and same-thread/same-line data *runs*.  Within a run
        no other processor acts and the thread's clock is constant, so
        the remote history the run can conflict with is fixed: the run
        head ORs, per remote sharer in ascending processor order, the
        read and write masks of the entries the clock does not dominate.
        A run whose own masks miss them cannot race and costs two mask
        ORs into its local entry; only a run that hits walks its events,
        so race records keep their order and detail.  A ``line ->
        processor bitmask`` residency map stands in for per-processor
        snoop probes.

        Sync accesses go through :meth:`HBState.sync`.  Without a plan
        (no kernels, or lines too wide for 64-bit word masks) the pass
        is the reference :meth:`process` loop over event objects.
        Verdicts and counters are identical either way (pinned by the
        packed-equivalence suite).
        """
        if self._ran_warm(packed):
            return
        line_mask = ~(self.geometry.line_size - 1)
        plan = packed.segment_plan(line_mask)
        if plan is None:
            Detector.process_packed(self, packed)
            return
        offset_mask = self.geometry.line_size - 1
        caches = self._snoop.caches
        cache_sets = [cache._sets for cache in caches]
        set_shift = caches[0]._set_shift
        set_mask = caches[0]._set_mask
        capacity = caches[0]._capacity
        finite = not self.geometry.is_infinite
        entries_per_line = self._entries_per_line
        record_race = self.outcome.record_race
        thread_proc = self._thread_proc
        clocks = self.hb.clocks
        sync = self.hb.sync
        # line -> bitmask of the processors caching it, kept on insert
        # and evict (the caches start empty).
        resident: Dict[int, int] = {}

        threads, addresses, flag_col, icounts = packed.hot_columns()
        starts = plan.starts
        for start, end, is_sync, run_reads, run_writes in zip(
            starts, islice(starts, 1, None), plan.sync,
            plan.read_masks, plan.write_masks,
        ):
            t = threads[start]
            address = addresses[start]
            if is_sync:
                sync(t, address, flag_col[start] & 1)
                continue
            comps = clocks[t]
            processor = thread_proc[t]
            bit = 1 << processor
            line = address & line_mask
            set_index = (line >> set_shift) & set_mask
            sharers = resident.get(line, 0)

            # Remote history is constant for the run: collect, per
            # sharer, the undominated masks the run's words can hit.
            others = sharers & ~bit
            if others:
                touched = run_reads | run_writes
                hits = []
                while others:
                    low = others & -others
                    others ^= low
                    remote = low.bit_length() - 1
                    rmask = wmask = 0
                    for entry in cache_sets[remote][set_index][line].entries:
                        ew = entry.write_mask & touched
                        er = entry.read_mask & run_writes
                        if ew or er:
                            for a, b in zip(comps, entry.ts):
                                if a < b:
                                    wmask |= ew
                                    rmask |= er
                                    break
                    if rmask or wmask:
                        hits.append((remote, rmask, wmask))
                if hits:
                    for i in range(start, end):
                        address = addresses[i]
                        wbit = 1 << ((address & offset_mask) >> 2)
                        is_write = flag_col[i] & 1
                        for remote, rmask, wmask in hits:
                            if wmask & wbit or (is_write and rmask & wbit):
                                record_race(
                                    DataRace(
                                        access=(t, icounts[i]),
                                        address=address,
                                        other_thread=None,
                                        detail="vector-unordered vs P%d"
                                        % remote,
                                    )
                                )
                                break

            # Local insert/MRU-touch; displaced history is lost.
            local_set = cache_sets[processor][set_index]
            meta = local_set.get(line)
            if meta is None:
                meta = LineMeta(entries_per_line)
                local_set[line] = meta
                resident[line] = sharers | bit
                cache = caches[processor]
                cache.insertions += 1
                if len(local_set) > capacity:
                    victim = next(iter(local_set))
                    del local_set[victim]
                    cache.evictions += 1
                    left = resident[victim] & ~bit
                    if left:
                        resident[victim] = left
                    else:
                        del resident[victim]
            elif finite:
                local_set[line] = local_set.pop(line)
            # The whole run lands in the entry stamped with this clock.
            entries = meta.entries
            for entry in entries:
                if entry.ts == comps:
                    entry.read_mask |= run_reads
                    entry.write_mask |= run_writes
                    break
            else:
                entries.insert(
                    0, TimestampEntry(comps, run_reads, run_writes)
                )
                if len(entries) > entries_per_line:
                    entries.pop()


    def _data_access(
        self, t: int, address: int, is_write: int, icount: int
    ) -> None:
        processor = self._thread_proc[t]
        clock = self.hb.clocks[t]
        line = self.geometry.line_address(address)
        word = (address - line) // 4

        # Snoop remote caches for conflicting cached history.
        raced_processor = None
        for remote, meta in self._snoop.snoop(processor, line):
            for stamp in meta.conflicting_timestamps(word, is_write):
                if not dominates(clock, stamp):
                    raced_processor = remote
                    break
            if raced_processor is not None:
                break
        if raced_processor is not None:
            self.outcome.record_race(
                DataRace(
                    access=(t, icount),
                    address=address,
                    other_thread=None,
                    detail="vector-unordered vs P%d" % raced_processor,
                )
            )

        # Record the access in the local metadata cache; displaced history
        # is lost (no main-memory timestamps in the vector schemes).
        cache = self._snoop.cache_of(processor)
        meta, _evicted = cache.access(line)
        meta.record_access(clock, word, is_write)

    def finish(self, trace):
        self.outcome.counters["evictions"] = self._snoop.total_evictions()
        return self.outcome
