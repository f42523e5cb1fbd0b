"""Race detectors: CORD, the Ideal oracle, and vector-clock comparators.

All detectors consume a :class:`~repro.trace.stream.Trace` event-by-event
and produce a :class:`~repro.detectors.base.DetectionOutcome`.  The
configurations mirror Section 4 of the paper:

* :class:`~repro.detectors.ideal.IdealDetector` -- vector clocks, unlimited
  history: detects *every* data race exposed by the causality of the
  execution.  Its verdict defines "the problem manifested" (Figure 10) and
  the denominators of Figures 12-17.
* :class:`~repro.detectors.vector_cord.LimitedVectorDetector` -- vector
  clocks with CORD's buffering limits (two timestamps per line, finite
  caches): the ``InfCache`` / ``L2Cache`` / ``L1Cache`` configurations of
  Figures 14/15 and the "vs. Vector Clock" baseline of Figures 12/13/16/17.
* :class:`~repro.cord.detector.CordDetector` -- the paper's mechanism
  (scalar clocks, window ``D``, main-memory timestamps, order recording).

The vector-clock detectors (and the FastTrack-style
:class:`~repro.detectors.epoch.EpochDetector`) share one happens-before
relation, defined in :mod:`repro.detectors.hb`.

:mod:`repro.detectors.registry` builds the full named suite used by the
experiment drivers.
"""

from repro.detectors.base import (
    AccessId,
    DataRace,
    DetectionOutcome,
    Detector,
)
from repro.detectors.epoch import EpochDetector
from repro.detectors.ideal import IdealDetector
from repro.detectors.vector_cord import LimitedVectorDetector
from repro.detectors.registry import DetectorSpec, standard_suite

__all__ = [
    "AccessId",
    "DataRace",
    "DetectionOutcome",
    "Detector",
    "DetectorSpec",
    "EpochDetector",
    "IdealDetector",
    "LimitedVectorDetector",
    "standard_suite",
]
