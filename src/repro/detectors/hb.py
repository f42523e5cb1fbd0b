"""Happens-before clock state shared by the vector-clock detectors.

Ideal, Epoch and the limited-history vector configurations (InfCache,
L2Cache, L1Cache) differ only in how they keep data-access history.  The
happens-before relation they test against is one and the same: program
order, plus the observed outcomes of conflicting *synchronization*
accesses.  This module defines it once.

**The rule** (:meth:`HBState.sync`).  A sync access joins the variable's
write history.  A sync write also joins the variable's read history,
publishes the joined clock as the new write history, and then ticks the
writer's own component (release).  A sync read merges its clock into the
read history and does not tick.

Clocks are vector clocks (Fidge/Mattern) held as raw component tuples on
every path: immutable, so history tables store them as they are, and
cheap to compare with the ``a < b`` early-exit idiom the hot loops
open-code.  :func:`join`, :func:`dominates` and :func:`tick` are the
lattice operations.

:class:`HBDetector` is the detectors' shared base: it owns the clock
state, the per-event dispatch, and the choice of columns for a columnar
pass.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.detectors.base import Detector
from repro.trace.events import MemoryEvent

#: A vector timestamp: one component per thread.
Clock = Tuple[int, ...]


def join(a: Clock, b: Clock) -> Clock:
    """Component-wise maximum (the vector-clock merge)."""
    return tuple(map(max, a, b))


def dominates(a: Clock, b: Clock) -> bool:
    """True if every component of ``a`` is >= ``b``'s (``b`` <= ``a``)."""
    for x, y in zip(a, b):
        if x < y:
            return False
    return True


def tick(clock: Clock, thread: int) -> Clock:
    """Copy of ``clock`` with ``thread``'s own component incremented."""
    ticked = list(clock)
    ticked[thread] += 1
    return tuple(ticked)


class HBState:
    """Per-thread clocks and per-sync-variable histories.

    Attributes:
        clocks: the current clock of each thread; thread *t* starts at
            the unit vector of *t*.
        writes: sync variable -> accumulated clock of its writers.
        reads: sync variable -> accumulated clock of its readers.
    """

    __slots__ = ("clocks", "writes", "reads")

    def __init__(self, n_threads: int):
        self.clocks: List[Clock] = [
            tick((0,) * n_threads, t) for t in range(n_threads)
        ]
        self.writes: Dict[int, Clock] = {}
        self.reads: Dict[int, Clock] = {}

    def sync(self, t: int, address: int, is_write: int) -> None:
        """Apply one sync access of thread ``t`` to ``address``."""
        clock = self.clocks[t]
        published = self.writes.get(address)
        if published is not None:
            clock = join(clock, published)
        readers = self.reads.get(address)
        if is_write:
            if readers is not None:
                clock = join(clock, readers)
            # The join dominates the prior write history, so it is the
            # new write history as it stands.
            self.writes[address] = clock
            self.clocks[t] = tick(clock, t)
        else:
            self.reads[address] = (
                clock if readers is None else join(readers, clock)
            )
            self.clocks[t] = clock


class HBDetector(Detector):
    """Base of the happens-before detectors.

    Subclasses supply the data side: :meth:`_data_access` for one data
    event, and a columnar ``process_packed``.  Sync events go to
    :meth:`HBState.sync` on both paths.
    """

    def __init__(self, n_threads: int):
        super().__init__()
        self.n_threads = n_threads
        self.hb = HBState(n_threads)
        self._cold = True

    def process(self, event: MemoryEvent) -> None:
        self._cold = False
        if event.is_sync:
            self.hb.sync(event.thread, event.address, event.is_write)
        else:
            self._data_access(
                event.thread, event.address, event.is_write, event.icount
            )

    def _data_access(
        self, t: int, address: int, is_write: int, icount: int
    ) -> None:
        raise NotImplementedError

    def _ran_warm(self, packed) -> bool:
        """Run ``packed`` through the per-event loop if this detector has
        already seen events, and say whether it did.

        A detector instance observes one trace, so the columnar passes
        assume a cold start; one fed events before takes
        :meth:`Detector.process_packed` instead.
        """
        if self._cold:
            self._cold = False
            return False
        Detector.process_packed(self, packed)
        return True

    def _columns(self, packed):
        """``(threads, addresses, flags, icounts)`` for a cold pass.

        These are the trace's word residual (:meth:`PackedTrace.word_residual`)
        when the kernels provide one: a data access to a word no other
        thread ever touches in data mode cannot race (every conflicting
        stamp is the thread's own) and leaves history only its own
        thread would consult, so dropping it changes no verdict.  Sync
        tables are keyed separately, so a word used as data by one
        thread and sync by another stays exact.  The residual is cached
        on the trace, so every oracle pass of a sweep shares one.
        Without kernels, the full hot columns.
        """
        residual = packed.word_residual()
        if residual is None:
            return packed.hot_columns()
        return (
            residual.threads,
            residual.addresses,
            residual.flags,
            residual.icounts,
        )
