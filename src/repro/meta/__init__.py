"""CORD cache metadata: per-line timestamp histories and memory timestamps.

This package models the state the paper adds to each cache (shown in gray
in its Figure 2):

* :mod:`repro.meta.linemeta` -- per line: up to two timestamps, each with
  per-word read/write access bits, plus the two check-filter bits and a
  data-valid bit (Section 2.3 and 2.7.2).
* :mod:`repro.meta.memts` -- the single read/write timestamp pair that
  covers all of main memory, updated when timestamps are displaced from
  caches (Section 2.5).
* :mod:`repro.meta.walker` -- the cache walker that evicts very stale
  timestamps so 16-bit sliding-window clocks never wrap ambiguously
  (Section 2.7.5).

The timestamp type is generic: CORD stores scalar ints, the comparison
configurations store vector-clock component tuples
(:mod:`repro.detectors.hb`) in the same structures.
"""

from repro.meta.linemeta import LineMeta, TimestampEntry
from repro.meta.memts import MainMemoryTimestamps
from repro.meta.walker import CacheWalker

__all__ = [
    "CacheWalker",
    "LineMeta",
    "MainMemoryTimestamps",
    "TimestampEntry",
]
