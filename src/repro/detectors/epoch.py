"""Epoch-optimized happens-before detection (FastTrack-style).

The Ideal oracle keeps one vector stamp per ⟨word, thread⟩ -- O(threads)
space and comparison per access.  Almost all accesses, though, are
totally ordered with the previous access to their word, and a total order
needs only an *epoch*: a ``(clock, thread)`` pair, compared against a
vector clock in O(1).  This is the FastTrack insight (Flanagan & Freund,
PLDI 2009 -- three years after CORD), implemented here as a faster oracle
for large campaigns:

* writes are always representable as the writer's epoch;
* reads stay an epoch until two concurrent reads force promotion to a
  full read vector, demoting back to an epoch on the next ordered write.

Guarantees (property-tested against :class:`IdealDetector`):

* identical verdicts on race-free executions (both silent);
* identical *problem detection* -- it reports at least one race on a word
  iff the full oracle does (the first race per word is detected exactly);
  per-access flag sets may differ after the first race on a word, because
  post-race state updates diverge between the algorithms.

Clocks and the sync rule come from :mod:`repro.detectors.hb`, shared
with the Ideal oracle.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.detectors.base import DataRace
from repro.detectors.hb import Clock, HBDetector, dominates

#: An epoch: (clock value, thread id).
Epoch = Tuple[int, int]


def _epoch_leq(epoch: Epoch, vc: Clock) -> bool:
    """``epoch`` happens-before-or-equals ``vc``."""
    clock, thread = epoch
    return clock <= vc[thread]


class _WordState:
    __slots__ = ("write", "read_epoch", "read_vc")

    def __init__(self):
        self.write: Optional[Epoch] = None
        self.read_epoch: Optional[Epoch] = None
        self.read_vc: Optional[Clock] = None


class EpochDetector(HBDetector):
    """FastTrack-style happens-before detector."""

    name = "Epoch"

    def __init__(self, n_threads: int):
        super().__init__(n_threads)
        self._words: Dict[int, _WordState] = {}
        #: Representation statistics (the optimization's payoff).
        self.epoch_reads = 0
        self.vector_reads = 0

    def _own_epoch(self, thread: int) -> Epoch:
        return (self.hb.clocks[thread][thread], thread)

    def _report(
        self, t: int, icount: int, address: int, detail: str
    ) -> None:
        self.outcome.record_race(
            DataRace(
                access=(t, icount),
                address=address,
                other_thread=None,
                detail=detail,
            )
        )

    def _columns(self, packed):
        # Every access the word residual drops is a data access, and each
        # dropped *read* would have taken the epoch fast path exactly
        # once -- a single-thread word never promotes to a read vector --
        # so the representation statistics count them here.
        residual = packed.word_residual()
        if residual is not None:
            self.epoch_reads += residual.skipped_reads
        return super()._columns(packed)

    def process_packed(self, packed) -> None:
        """Columnar dispatch: no event objects, same verdicts."""
        if self._ran_warm(packed):
            return
        sync = self.hb.sync
        data_access = self._data_access
        for t, address, eflags, icount in zip(*self._columns(packed)):
            if eflags & 2:
                sync(t, address, eflags & 1)
            else:
                data_access(t, address, eflags & 1, icount)

    def _data_access(
        self, t: int, address: int, is_write: int, icount: int
    ) -> None:
        vc = self.hb.clocks[t]
        word = self._words.setdefault(address, _WordState())
        write = word.write
        write_races = (
            write is not None
            and write[1] != t
            and not _epoch_leq(write, vc)
        )

        if not is_write:
            if write_races:
                self._report(t, icount, address, "read-write race")
            # Read tracking: same-epoch fast path, else epoch/VC logic.
            my_epoch = self._own_epoch(t)
            if word.read_vc is not None:
                self.vector_reads += 1
                comps = list(word.read_vc)
                comps[t] = max(comps[t], my_epoch[0])
                word.read_vc = tuple(comps)
            elif word.read_epoch is None or word.read_epoch[1] == t:
                self.epoch_reads += 1
                word.read_epoch = my_epoch
            elif _epoch_leq(word.read_epoch, vc):
                # Previous read is ordered before us: stay an epoch.
                self.epoch_reads += 1
                word.read_epoch = my_epoch
            else:
                # Two concurrent reads: promote to a read vector.
                self.vector_reads += 1
                comps = [0] * self.n_threads
                comps[word.read_epoch[1]] = word.read_epoch[0]
                comps[t] = my_epoch[0]
                word.read_vc = tuple(comps)
                word.read_epoch = None
            return

        # Write: races with the previous write and with any reads not
        # ordered before us.
        raced = False
        if write_races:
            raced = True
            self._report(t, icount, address, "write-write race")
        if not raced and word.read_vc is not None:
            if not dominates(vc, word.read_vc):
                raced = True
                self._report(
                    t, icount, address, "write after concurrent reads"
                )
        if (
            not raced
            and word.read_epoch is not None
            and word.read_epoch[1] != t
            and not _epoch_leq(word.read_epoch, vc)
        ):
            raced = True
            self._report(t, icount, address, "read-write race")
        # Writes demote read state (FastTrack's space saving).
        word.write = self._own_epoch(t)
        word.read_vc = None
        word.read_epoch = None
