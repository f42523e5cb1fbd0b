"""Logical clocks: scalar (CORD) and Lamport clocks.

The paper contrasts three clocking schemes:

* classical **Lamport clocks** (sequence number + tie-breaking thread id,
  Section 2.4) which impose a total order;
* CORD's **scalar clocks** -- plain integers with *no* tie-break, so that
  equality can express concurrency, with the ``clk = ts + 1`` race update
  and the sync-read window update ``clk = max(clk, ts + D)`` (Section 2.6);
* **vector clocks** (Fidge/Mattern) that capture the happens-before relation
  exactly and are used by the Ideal and ReEnact-like comparison configs;
  they live with those detectors, as component tuples, in
  :mod:`repro.detectors.hb`.

The 16-bit hardware clock with sliding-window comparison (Section 2.7.5) is
modeled in :mod:`repro.clocks.window`.
"""

from repro.clocks.scalar import ScalarClock
from repro.clocks.lamport import LamportClock, LamportStamp
from repro.clocks.window import SlidingWindowComparator, WINDOW_CLOCK_BITS

__all__ = [
    "LamportClock",
    "LamportStamp",
    "ScalarClock",
    "SlidingWindowComparator",
    "WINDOW_CLOCK_BITS",
]
