"""Flat array-backed per-line CORD metadata (the scalar hot path).

:class:`ScalarLineStore` holds the metadata of *every* line of one snoop
domain in parallel flat integer columns instead of per-line
:class:`~repro.meta.linemeta.LineMeta` objects with ``TimestampEntry``
lists.  A cached line is identified by an integer *slot*; the caches map
line address -> slot, and all metadata operations are flat array reads
and writes:

=========  =====  ====================================================
column     type   contents (``E`` = entries per line)
=========  =====  ====================================================
``ts``     ``q``  ``E`` timestamps per slot, newest first
``rmask``  ``Q``  per-entry read access bits, one bit per word
``wmask``  ``Q``  per-entry write access bits
``count``  ``B``  resident entries in the slot (0..E)
``flags``  ``B``  packed filter/valid/permission bits (see ``F_*``)
``fclock`` ``q``  clock value the check filter was granted at
=========  =====  ====================================================

Semantics are bit-for-bit identical to ``LineMeta`` with scalar integer
timestamps -- the golden replay suite pins that equivalence.  The object
path remains for detectors whose timestamps are not scalars (the vector
comparison configurations store vector-clock tuples).

Freed slots go on a free list and are reused, so a long campaign touches
a bounded region of each column: no per-event object allocation, no GC
pressure from metadata churn.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import ConfigError

#: Scalar timestamps are stored as signed 64-bit values.  Functional-mode
#: clocks grow by O(events); 2^63 is unreachable in any real campaign.
_TS_MAX = (1 << 63) - 1

#: flags bits
F_READ_FILTER = 1
F_WRITE_FILTER = 2
F_DATA_VALID = 4
F_WRITE_PERMISSION = 8
_F_FILTERS = F_READ_FILTER | F_WRITE_FILTER


class ScalarLineStore:
    """Slot-addressed flat storage for scalar per-line CORD metadata.

    Args:
        entries_per_line: timestamp entries per line (the paper uses 2).
        words_per_line: words covered by each access bitmask (line size /
            4; must fit the 64-bit mask columns).
    """

    __slots__ = ("entries_per_line", "words_per_line", "ts", "rmask",
                 "wmask", "count", "flags", "fclock", "_free")

    def __init__(self, entries_per_line: int = 2, words_per_line: int = 16):
        if entries_per_line < 1:
            raise ConfigError(
                "need at least one timestamp entry per line, got %d"
                % entries_per_line
            )
        if not 1 <= words_per_line <= 64:
            raise ConfigError(
                "flat masks cover 1..64 words per line, got %d "
                "(use lines of at most 256 bytes)" % words_per_line
            )
        self.entries_per_line = entries_per_line
        self.words_per_line = words_per_line
        # Plain lists, not array.array: the columns are indexed tens of
        # times per event on the detector hot path, and a list hands
        # back pre-boxed ints where an array must box on every read.
        # The compactness argument doesn't apply -- slots are bounded by
        # cache capacity, not trace length.
        self.ts: List[int] = []
        self.rmask: List[int] = []
        self.wmask: List[int] = []
        self.count: List[int] = []
        self.flags: List[int] = []
        self.fclock: List[int] = []
        self._free: List[int] = []

    def __len__(self) -> int:
        """Slots currently allocated (resident lines)."""
        return len(self.count) - len(self._free)

    # -- slot lifecycle ---------------------------------------------------

    def alloc(self) -> int:
        """Allocate a fresh slot for a newly cached line.

        Entry columns are left stale on reuse: every reader walks at
        most ``count`` entries (reset to zero here), and filter clocks
        are only consulted when a filter flag is set, so zeroing the
        arrays would be dead work on the hot fill path.
        """
        if self._free:
            slot = self._free.pop()
            self.count[slot] = 0
            self.flags[slot] = 0
            return slot
        slot = len(self.count)
        self.ts.extend([0] * self.entries_per_line)
        self.rmask.extend([0] * self.entries_per_line)
        self.wmask.extend([0] * self.entries_per_line)
        self.count.append(0)
        self.flags.append(0)
        self.fclock.append(0)
        return slot

    def free(self, slot: int) -> None:
        """Return a slot to the free list (its line left every cache)."""
        self._free.append(slot)

    # -- race-check support ----------------------------------------------

    def conflicting_timestamps(
        self, slot: int, word: int, is_write: bool
    ) -> List[int]:
        """Timestamps of resident history conflicting with an access.

        A write conflicts with prior reads and writes of the word; a read
        conflicts only with prior writes (Section 2.1), newest first.
        """
        base = slot * self.entries_per_line
        bit = 1 << word
        out = []
        for e in range(base, base + self.count[slot]):
            mask = self.wmask[e]
            if is_write:
                mask |= self.rmask[e]
            if mask & bit:
                out.append(self.ts[e])
        return out

    def any_conflict_in_line(self, slot: int, is_write: bool) -> bool:
        """Does *any word* of the line have relevant history here?"""
        base = slot * self.entries_per_line
        for e in range(base, base + self.count[slot]):
            if self.wmask[e]:
                return True
            if is_write and self.rmask[e]:
                return True
        return False

    def bit_already_set(
        self, slot: int, clock: int, word: int, is_write: bool
    ) -> bool:
        """Was this word already accessed in this mode at this clock?"""
        base = slot * self.entries_per_line
        for e in range(base, base + self.count[slot]):
            if self.ts[e] == clock:
                mask = self.wmask[e] if is_write else self.rmask[e]
                return bool((mask >> word) & 1)
        return False

    # -- check filters ----------------------------------------------------

    def filter_allows(self, slot: int, is_write: bool, clock: int) -> bool:
        bit = F_WRITE_FILTER if is_write else F_READ_FILTER
        return bool(self.flags[slot] & bit) and self.fclock[slot] == clock

    def grant_filter(self, slot: int, is_write: bool, clock: int) -> None:
        bits = _F_FILTERS if is_write else F_READ_FILTER
        self.flags[slot] |= bits
        self.fclock[slot] = clock

    def revoke_filters(self, slot: int, remote_is_write: bool) -> None:
        """A remote race check revokes filters and write permission."""
        clear = F_WRITE_FILTER | F_WRITE_PERMISSION
        if remote_is_write:
            clear |= F_READ_FILTER
        self.flags[slot] &= ~clear & 0xFF

    # -- recording --------------------------------------------------------

    def record_access(
        self, slot: int, ts: int, word: int, is_write: bool
    ) -> Optional[Tuple[int, int, int]]:
        """Record a local access at timestamp ``ts``.

        Returns the retired oldest entry as ``(ts, rmask, wmask)`` when
        allocating a new entry overflowed the per-line budget, else None.
        """
        if ts > _TS_MAX:
            raise ConfigError("timestamp %d overflows the flat store" % ts)
        base = slot * self.entries_per_line
        n = self.count[slot]
        bit = 1 << word
        for e in range(base, base + n):
            if self.ts[e] == ts:
                if is_write:
                    self.wmask[e] |= bit
                else:
                    self.rmask[e] |= bit
                return None
        retired = None
        if n == self.entries_per_line:
            last = base + n - 1
            retired = (self.ts[last], self.rmask[last], self.wmask[last])
        else:
            self.count[slot] = n + 1
        # Shift entries down one position; the new entry goes in front.
        tsa, rma, wma = self.ts, self.rmask, self.wmask
        for e in range(base + min(n, self.entries_per_line - 1), base, -1):
            tsa[e] = tsa[e - 1]
            rma[e] = rma[e - 1]
            wma[e] = wma[e - 1]
        tsa[base] = ts
        if is_write:
            rma[base] = 0
            wma[base] = bit
        else:
            rma[base] = bit
            wma[base] = 0
        return retired

    def retire_all(self, slot: int) -> List[Tuple[int, int, int]]:
        """Remove and return all entries newest-first (line retirement)."""
        base = slot * self.entries_per_line
        retired = [
            (self.ts[e], self.rmask[e], self.wmask[e])
            for e in range(base, base + self.count[slot])
        ]
        self.count[slot] = 0
        self.flags[slot] &= ~_F_FILTERS & 0xFF
        return retired

    # -- introspection -----------------------------------------------------

    def entries(self, slot: int) -> List[Tuple[int, int, int]]:
        """Resident entries as ``(ts, rmask, wmask)`` tuples, newest first."""
        base = slot * self.entries_per_line
        return [
            (self.ts[e], self.rmask[e], self.wmask[e])
            for e in range(base, base + self.count[slot])
        ]

    def data_valid(self, slot: int) -> bool:
        return bool(self.flags[slot] & F_DATA_VALID)

    def write_permission(self, slot: int) -> bool:
        return bool(self.flags[slot] & F_WRITE_PERMISSION)

    def read_filter(self, slot: int) -> bool:
        return bool(self.flags[slot] & F_READ_FILTER)

    def write_filter(self, slot: int) -> bool:
        return bool(self.flags[slot] & F_WRITE_FILTER)

    def newest_timestamp(self, slot: int) -> Optional[int]:
        if not self.count[slot]:
            return None
        return self.ts[slot * self.entries_per_line]

    def oldest_timestamp(self, slot: int) -> Optional[int]:
        n = self.count[slot]
        if not n:
            return None
        return self.ts[slot * self.entries_per_line + n - 1]

    # -- the walker's pass -------------------------------------------------

    def retire_stale(self, slot, threshold, memts):
        """Retire entries with ``ts < threshold`` into ``memts``.

        Returns ``(n_retired, min_kept_ts_or_None)``.  Entries are
        examined newest-first (matching the object walker's fold order);
        surviving entries keep their relative order.  Any retirement
        clears the slot's filter bits (lost history voids the line's
        no-conflict guarantee).
        """
        base = slot * self.entries_per_line
        n = self.count[slot]
        kept = base
        n_retired = 0
        minimum: Optional[int] = None
        tsa, rma, wma = self.ts, self.rmask, self.wmask
        for e in range(base, base + n):
            t = tsa[e]
            if t < threshold:
                memts.fold_raw(t, rma[e] != 0, wma[e] != 0)
                n_retired += 1
            else:
                if minimum is None or t < minimum:
                    minimum = t
                if kept != e:
                    tsa[kept] = t
                    rma[kept] = rma[e]
                    wma[kept] = wma[e]
                kept += 1
        if n_retired:
            self.count[slot] = kept - base
            self.flags[slot] &= ~_F_FILTERS & 0xFF
        return n_retired, minimum
