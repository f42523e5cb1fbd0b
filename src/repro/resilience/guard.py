"""The automatic degradation ladder: fused -> kernel -> scalar.

The analysis stack has three tiers, fastest first:

1. **fused** -- one interval-fused pass covers a whole D-sweep group
   (:func:`repro.cord.fused.fuse_cord_detectors`);
2. **kernel** -- the per-configuration packed pass
   (``Detector.run_packed``, which internally picks the plan-driven
   kernel or the scalar columnar loop);
3. **scalar** -- the pure-python per-event-object reference path
   (``Detector.run`` over materialized events), the code every
   accelerated tier is pinned byte-identical to.

All three produce identical reports by construction (and by the
equivalence test suites), so an accelerated tier is always *safe to
abandon*: this module catches any exception an accelerated pass raises,
logs it once with full context, rebuilds the affected detectors fresh
(a half-finished pass may have torn their state), and re-runs the
affected configurations on the next-slower tier.  Only when the scalar
reference path itself fails does the failure escape, as
:class:`~repro.common.errors.DegradedPathError`.

Degradations are recorded in the process-global :data:`GUARD_LOG` (the
chaos suite asserts on it) and logged through :mod:`logging` under
``repro.resilience.guard``.

Paranoid mode: with ``REPRO_CROSS_CHECK=1`` every analyzed trace is
additionally re-analyzed on the lower ladder tiers and the reports are
asserted identical -- flagged accesses, race records, counters, and the
order log, byte for byte.  A mismatch raises
:class:`~repro.common.errors.PipelineError`; it means an accelerated
path is wrong, which the paper's soundness claim cannot tolerate.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import DegradedPathError, PipelineError
from repro.trace.stream import Trace

logger = logging.getLogger("repro.resilience.guard")

#: Ladder tiers, fastest first; all are per-configuration within one run.
LADDER = ("fused", "kernel", "scalar")


def cross_check_enabled() -> bool:
    """Is paranoid ladder cross-checking on (``REPRO_CROSS_CHECK=1``)?"""
    return os.environ.get("REPRO_CROSS_CHECK", "") == "1"


@dataclass
class DegradationEvent:
    """One recorded fall down the ladder."""

    tier: str        #: the tier that failed ("fused" or "kernel")
    detector: str    #: spec name, or "*" for a whole fused group
    error: str       #: ``repr()`` of the exception

    def __str__(self):
        return "%s path failed for %s: %s" % (
            self.tier, self.detector, self.error,
        )


@dataclass
class GuardLog:
    """Accumulating record of ladder degradations (process-global)."""

    events: List[DegradationEvent] = field(default_factory=list)

    def record(self, tier: str, detector: str, exc: BaseException) -> None:
        event = DegradationEvent(tier, detector, repr(exc))
        self.events.append(event)
        logger.warning(
            "degrading to the next tier: %s", event, exc_info=exc
        )

    def count(self, tier: Optional[str] = None) -> int:
        if tier is None:
            return len(self.events)
        return sum(1 for event in self.events if event.tier == tier)

    def clear(self) -> None:
        del self.events[:]


#: Process-global degradation record; tests clear and inspect it.
GUARD_LOG = GuardLog()


def mark_plan_sharing(detectors) -> None:
    """Tell each CORD detector whether its coherence plan amortizes.

    The plan (:mod:`repro.cord.coherence`) is keyed by cache geometry
    and shared across a sweep's configurations; building one that no
    other configuration reuses costs about as much as the scalar pass it
    replaces (a cache-capacity sweep is all unique geometries).  The
    caller sees the whole detector list, so it can say which geometries
    appear at least twice; singletons keep the scalar loop.
    """
    from repro.cord.detector import CordDetector

    keys = {}
    for det in detectors:
        if type(det) is CordDetector and det._walkers is None:
            keys[id(det)] = det._coherence_key()
    counts = Counter(keys.values())
    for det in detectors:
        key = keys.get(id(det))
        if key is not None:
            det._plan_amortized = counts[key] >= 2


def compute_outcomes(
    specs: Sequence,
    n_threads: int,
    packed,
    allow_fused: bool = True,
    allow_packed: bool = True,
    guard_log: Optional[GuardLog] = None,
) -> Dict[str, "DetectionOutcome"]:  # noqa: F821 - doc reference
    """Analyze ``packed`` with every spec, degrading tiers on failure.

    The entry tier is selected by the flags (``allow_fused=False`` skips
    straight to the kernel tier; ``allow_packed=False`` to scalar) --
    the cross-check uses them to pin a tier; normal analysis leaves both
    True and only ever *descends*.
    """
    log = GUARD_LOG if guard_log is None else guard_log
    if not allow_packed:
        trace = Trace.from_packed(packed)
        return {
            spec.name: spec.build(n_threads).run(trace) for spec in specs
        }

    built = [(spec, spec.build(n_threads)) for spec in specs]
    mark_plan_sharing([det for _spec, det in built])
    fused_ids: frozenset = frozenset()
    if allow_fused and len(built) > 1:
        from repro.cord.fused import fuse_cord_detectors

        try:
            fused_ids = fuse_cord_detectors(
                [det for _spec, det in built], packed
            )
        except Exception as exc:  # noqa: BLE001 - the ladder's contract
            log.record("fused", "*", exc)
            # An aborted group pass may have half-materialized any
            # detector in the group: rebuild them all, cold.
            built = [(spec, spec.build(n_threads)) for spec in specs]
            mark_plan_sharing([det for _spec, det in built])
            fused_ids = frozenset()

    outcomes: Dict[str, object] = {}
    scalar_trace: Optional[Trace] = None
    for spec, det in built:
        try:
            if id(det) in fused_ids:
                outcomes[spec.name] = det.finish(packed)
            else:
                outcomes[spec.name] = det.run_packed(packed)
        except Exception as exc:  # noqa: BLE001 - the ladder's contract
            log.record("kernel", spec.name, exc)
            if scalar_trace is None:
                scalar_trace = Trace.from_packed(packed)
            fresh = spec.build(n_threads)
            try:
                outcomes[spec.name] = fresh.run(scalar_trace)
            except Exception as scalar_exc:
                raise DegradedPathError(
                    "configuration %r failed on every ladder tier "
                    "(last: scalar reference path raised %r; "
                    "accelerated-tier failure was %r)"
                    % (spec.name, scalar_exc, exc)
                ) from scalar_exc
    return outcomes


def _fingerprint(outcome):
    """Everything a report contains, as a comparable value."""
    log = getattr(outcome, "log", None)
    log_key = None
    if log is not None:
        log_key = (
            log.size_bytes,
            tuple((e.clock, e.thread, e.count) for e in log),
        )
    return (
        outcome.detector_name,
        tuple(sorted(outcome.flagged)),
        tuple(outcome.races),
        tuple(sorted(outcome.counters.items())),
        log_key,
    )


def verify_ladder_equivalence(
    specs: Sequence,
    n_threads: int,
    packed,
    primary: Dict[str, object],
) -> None:
    """Re-run the lower tiers and assert byte-identical reports.

    ``primary`` is the report set the normal (fused-first) analysis
    produced; the kernel and scalar tiers must reproduce it exactly.
    """
    tiers = (
        ("kernel", dict(allow_fused=False)),
        ("scalar", dict(allow_fused=False, allow_packed=False)),
    )
    want = {name: _fingerprint(out) for name, out in primary.items()}
    for tier, kwargs in tiers:
        alt = compute_outcomes(specs, n_threads, packed, **kwargs)
        for name, outcome in alt.items():
            if _fingerprint(outcome) != want[name]:
                raise PipelineError(
                    "REPRO_CROSS_CHECK: %r differs between the primary "
                    "analysis and the %s tier -- an accelerated path "
                    "is producing wrong reports" % (name, tier)
                )


def guarded_outcomes(
    specs: Sequence,
    n_threads: int,
    packed,
    guard_log: Optional[GuardLog] = None,
) -> Dict[str, object]:
    """The guarded analysis entry point used by the campaign layer."""
    outcomes = compute_outcomes(
        specs, n_threads, packed, guard_log=guard_log
    )
    if cross_check_enabled():
        verify_ladder_equivalence(specs, n_threads, packed, outcomes)
    return outcomes
