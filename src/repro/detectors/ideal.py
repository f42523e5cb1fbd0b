"""The Ideal detector: the paper's oracle configuration.

Vector clocks, unlimited "caches", unlimited history: detects **all**
dynamically occurring data races exposed by the causality of the execution
(Section 4's ``Ideal``).  Its history is per ⟨word, thread⟩ last-read and
last-write vector timestamps, which is complete: if the latest conflicting
access by thread *u* is ordered before the current access, every earlier
one is too (program order plus transitivity), so nothing is lost relative
to unbounded per-access history for *flagged-access* counting.

The happens-before relation, and its sync rule, is the one in
:mod:`repro.detectors.hb`, shared with every vector-clock detector.
"""

from __future__ import annotations

from typing import Dict

from repro.detectors.base import DataRace
from repro.detectors.hb import Clock, HBDetector, dominates


class IdealDetector(HBDetector):
    """Oracle happens-before data race detector."""

    name = "Ideal"

    def __init__(self, n_threads: int):
        super().__init__(n_threads)
        # Per data word, per thread: last read / last write vector stamps.
        self._last_read: Dict[int, Dict[int, Clock]] = {}
        self._last_write: Dict[int, Dict[int, Clock]] = {}

    def process_packed(self, packed) -> None:
        """Columnar loop: no event objects, same verdicts.

        Data accesses dominate the stream, so their path is inlined with
        the dominance test open-coded over the component tuples (the
        ``a < b`` early-exit idiom); sync accesses (rare) go through
        :meth:`HBState.sync`.  It reads :meth:`_columns`: the word
        residual when the kernels provide one.
        """
        if self._ran_warm(packed):
            return
        record_race = self.outcome.record_race
        clocks = self.hb.clocks
        sync = self.hb.sync
        last_read = self._last_read
        last_write = self._last_write
        for t, address, eflags, icount in zip(*self._columns(packed)):
            if eflags & 2:
                sync(t, address, eflags & 1)
                continue
            comps = clocks[t]
            is_write = eflags & 1
            raced_with = None
            write_hist = last_write.get(address)
            if write_hist:
                for u, stamp in write_hist.items():
                    if u != t:
                        for a, b in zip(comps, stamp):
                            if a < b:
                                raced_with = u
                                break
                        if raced_with is not None:
                            break
            if raced_with is None and is_write:
                read_hist = last_read.get(address)
                if read_hist:
                    for u, stamp in read_hist.items():
                        if u != t:
                            for a, b in zip(comps, stamp):
                                if a < b:
                                    raced_with = u
                                    break
                            if raced_with is not None:
                                break
            if raced_with is not None:
                record_race(
                    DataRace(
                        access=(t, icount),
                        address=address,
                        other_thread=raced_with,
                        detail="hb-unordered",
                    )
                )
            table = last_write if is_write else last_read
            entry = table.get(address)
            if entry is None:
                table[address] = {t: comps}
            else:
                entry[t] = comps

    def _data_access(
        self, t: int, address: int, is_write: int, icount: int
    ) -> None:
        clock = self.hb.clocks[t]

        write_hist = self._last_write.get(address)
        raced_with = None
        if write_hist:
            for u, stamp in write_hist.items():
                if u != t and not dominates(clock, stamp):
                    raced_with = u
                    break
        if raced_with is None and is_write:
            read_hist = self._last_read.get(address)
            if read_hist:
                for u, stamp in read_hist.items():
                    if u != t and not dominates(clock, stamp):
                        raced_with = u
                        break
        if raced_with is not None:
            self.outcome.record_race(
                DataRace(
                    access=(t, icount),
                    address=address,
                    other_thread=raced_with,
                    detail="hb-unordered",
                )
            )

        table = self._last_write if is_write else self._last_read
        table.setdefault(address, {})[t] = clock
