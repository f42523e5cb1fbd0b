"""The automatic degradation ladder: batch -> fused -> kernel -> scalar.

The analysis stack has four tiers, fastest first:

1. **batch** -- one arena pass builds the analysis plans for *k*
   same-geometry recorded runs at once (the batched builders in
   :mod:`repro.trace.kernels`, seeded into each trace's plan cache) and
   carries fused-threshold hints across the batch; the only multi-run
   tier;
2. **fused** -- one interval-fused pass covers a whole D-sweep group
   (:func:`repro.cord.fused.fuse_cord_detectors`);
3. **kernel** -- the per-configuration packed pass
   (``Detector.run_packed``, which internally picks the plan-driven
   kernel or the scalar columnar loop);
4. **scalar** -- the pure-python per-event-object reference path
   (``Detector.run`` over materialized events), the code every
   accelerated tier is pinned byte-identical to.

The batch tier is pure *preparation*: it seeds per-trace caches with
values byte-identical to what the per-run builders would derive (pinned
by the batch property suite), so abandoning it mid-flight just means
some runs derive their own plans -- one poisoned run degrades alone
through the per-run tiers while the rest of the batch keeps its seeded
plans.

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

#: Ladder tiers, fastest first.  "batch" is the only multi-run tier;
#: the other three are per-configuration within one run.
LADDER = ("batch", "fused", "kernel", "scalar")


def cross_check_enabled() -> bool:
    """Is paranoid ladder cross-checking on (``REPRO_CROSS_CHECK=1``)?"""
    return os.environ.get("REPRO_CROSS_CHECK", "") == "1"


@dataclass
class DegradationEvent:
    """One recorded fall down the ladder."""

    tier: str        #: the tier that failed ("batch", "fused" or "kernel")
    detector: str    #: spec name, or "*" for a whole fused group / batch
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
    fused_hints: Optional[dict] = None,
) -> Dict[str, "DetectionOutcome"]:  # noqa: F821 - doc reference
    """Analyze ``packed`` with every spec, degrading tiers on failure.

    The entry tier is selected by the flags (``allow_fused=False`` skips
    straight to the kernel tier; ``allow_packed=False`` to scalar) --
    the cross-check uses them to pin a tier; normal analysis leaves both
    True and only ever *descends*.  ``fused_hints`` is the batch tier's
    threshold memo, threaded through to
    :func:`repro.cord.fused.fuse_cord_detectors` (cost policy only).
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
                [det for _spec, det in built], packed,
                hints=fused_hints,
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


# -- the batch tier (multi-run arena) -----------------------------------------


def _needed_products(specs, n_threads):
    """What plan products do these specs consume on the kernel tier?

    Throwaway builds introspect each detector's geometry: CORD and the
    vector-clock comparison configs need a
    :class:`~repro.trace.kernels.SegmentPlan` per line mask, and the
    happens-before oracles the word residual.  Construction is a few
    dict inserts per detector -- noise next to one analysis pass.
    """
    from repro.cord.detector import CordDetector
    from repro.detectors.epoch import EpochDetector
    from repro.detectors.ideal import IdealDetector
    from repro.detectors.vector_cord import LimitedVectorDetector

    seg_masks, want_word = set(), False
    for spec in specs:
        det = spec.build(n_threads)
        if isinstance(det, CordDetector):
            seg_masks.add(det._line_mask)
        elif isinstance(det, LimitedVectorDetector):
            seg_masks.add(~(det.geometry.line_size - 1))
        elif isinstance(det, (IdealDetector, EpochDetector)):
            want_word = True
    return seg_masks, want_word


def _prime_batch(items) -> None:
    """Seed every run's plan caches from one arena pass per product.

    ``items`` is the batch: ``(specs, n_threads, packed)`` triples.  The
    batched builders are byte-identical to their per-run counterparts
    and the seeders never clobber, so a partial prime (an exception
    after some products landed) leaves only correct values behind.
    """
    from repro.resilience import faults
    from repro.trace import kernels

    if not kernels.kernels_enabled():
        return
    if faults.active() and faults.fire("batch_raise"):
        # Chaos harness: an unexpected crash in the batch tier.  The
        # ladder must abandon the arena and let every run derive its
        # own plans through the per-run tiers.
        raise RuntimeError(
            "chaos: injected batch-tier fault (batch_raise)"
        )
    packeds = [packed for _specs, _n, packed in items]
    seg_masks, want_word = set(), False
    for specs, n_threads, _packed in items:
        segs, word = _needed_products(specs, n_threads)
        seg_masks |= segs
        want_word = want_word or word
    for mask in sorted(seg_masks):
        plans = kernels.build_batched_segment_plans(packeds, mask)
        if plans is not None:
            for packed, plan in zip(packeds, plans):
                packed.seed_segment_plan(mask, plan)
    if want_word:
        views = kernels.build_batched_word_residuals(packeds)
        if views is not None:
            for packed, view in zip(packeds, views):
                packed.seed_word_residual(view)


def compute_outcomes_batch(
    items: Sequence,
    guard_log: Optional[GuardLog] = None,
) -> List[Dict[str, object]]:
    """Analyze a batch of recorded runs, one outcome dict per item.

    ``items`` holds ``(specs, n_threads, packed)`` triples of
    same-geometry runs.  The batch tier primes every run's plan caches
    in one arena pass and threads a fused-threshold memo across the
    batch; each run then flows through the ordinary per-run ladder, so
    a failing batch pass -- or one poisoned run -- degrades exactly
    like today: the run falls to the next tier alone, its batchmates
    keep their seeded plans.
    """
    log = GUARD_LOG if guard_log is None else guard_log
    if len(items) > 1:
        try:
            _prime_batch(items)
        except Exception as exc:  # noqa: BLE001 - the ladder's contract
            log.record("batch", "*", exc)
    hints: dict = {}
    return [
        compute_outcomes(
            specs, n_threads, packed,
            guard_log=log, fused_hints=hints,
        )
        for specs, n_threads, packed in items
    ]


def guarded_outcomes_batch(
    items: Sequence,
    guard_log: Optional[GuardLog] = None,
) -> List[Dict[str, object]]:
    """Batch counterpart of :func:`guarded_outcomes`.

    The cross-check runs per item against the *un*-batched lower tiers,
    so a wrong seeded plan or a wrong hint cannot hide behind itself.
    """
    results = compute_outcomes_batch(items, guard_log=guard_log)
    if cross_check_enabled():
        for (specs, n_threads, packed), outcomes in zip(items, results):
            verify_ladder_equivalence(specs, n_threads, packed, outcomes)
    return results
