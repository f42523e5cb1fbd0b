"""Parameter-sensitivity sweeps (extending Sections 4.3/4.4).

The paper samples its design space at four points per axis (D ∈ {1, 4,
16, 256}; caches ∈ {L1, L2, Inf}).  These drivers sweep the axes densely
so the knees are visible:

* :func:`d_sensitivity` -- problem/raw detection rate as a function of
  the sync-read window ``D``;
* :func:`cache_sensitivity` -- CORD detection as a function of metadata
  capacity, from severely constrained to unlimited.

Both reuse the injection-campaign machinery with custom detector suites;
the Ideal oracle anchors every sweep point to the same denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.texttable import format_percent, format_table
from repro.detectors.base import Detector
from repro.detectors.ideal import IdealDetector
from repro.detectors.registry import DetectorSpec
from repro.experiments import pipeline
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    run_campaign_per_config,
)
from repro.resilience.checkpoint import run_interrupted
from repro.trace.store import PackedTraceStore
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload

#: Default dense sweeps.
D_VALUES = (1, 2, 4, 8, 16, 32, 64, 256)
CACHE_SIZES = (2048, 4096, 8192, 16384, 32768, 65536, None)


@dataclass
class SweepResult:
    """Detection rates along one parameter axis (pooled over apps)."""

    parameter: str
    points: List[object] = field(default_factory=list)
    problem_rates: List[float] = field(default_factory=list)
    raw_rates: List[float] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            [
                str(point),
                format_percent(problem),
                format_percent(raw),
            ]
            for point, problem, raw in zip(
                self.points, self.problem_rates, self.raw_rates
            )
        ]
        return format_table(
            [self.parameter, "problem rate", "raw rate"],
            rows,
            title="Sensitivity sweep over %s (vs Ideal)" % self.parameter,
        )

    def is_monotone_nondecreasing(self, tolerance: float = 1e-9) -> bool:
        rates = self.problem_rates
        return all(
            later >= earlier - tolerance
            for earlier, later in zip(rates, rates[1:])
        )


def _cord_point_spec(name: str, **config_kwargs) -> DetectorSpec:
    def factory(n_threads: int) -> Detector:
        from repro.cord.config import CordConfig
        from repro.cord.detector import CordDetector

        return CordDetector(CordConfig(**config_kwargs), n_threads)

    return DetectorSpec(name, factory)


def _run_sweep(
    parameter: str,
    specs: List[DetectorSpec],
    labels: Sequence[object],
    workloads: Sequence[str],
    runs_per_app: int,
    params: WorkloadParams,
    base_seed: int,
    mode: str = "shared",
    trace_store: Optional[PackedTraceStore] = None,
    checkpoint=None,
) -> SweepResult:
    """Pooled detection rates along one axis, in one of two modes.

    ``"shared"`` (record-once / analyze-many, the default): one campaign
    per application records each injected run exactly once and every
    sweep point analyzes the shared packed trace.  The campaigns run as
    stage tasks in this process
    (:func:`repro.experiments.pipeline.run_campaigns`), over
    ``trace_store`` (so recordings persist across sweeps) or else over
    a temporary store deleted on return.  Every stage's store counters
    are added into ``trace_store.stats``.  ``"per-config"``: the
    legacy protocol -- every sweep point gets its own campaign (own
    dry-run, own simulations, per-event-object detector passes), the
    cost model the record-once speedup is measured against.  Both modes
    produce bit-identical results (seeds derive only from the base seed
    and workload; the record-once suite asserts equality).

    With a ``checkpoint`` (a
    :class:`~repro.resilience.journal.RunCheckpoint`; shared mode with a
    ``trace_store`` only), every campaign and run is journaled through
    :func:`~repro.experiments.pipeline.journal_hooks` and its outcome
    bundle persisted, and a requested shutdown stops the stream and
    raises :class:`~repro.common.errors.InterruptedRunError`;
    re-running over the same store resumes bit-identically.
    """
    if mode not in ("shared", "per-config"):
        raise ValueError("unknown sweep mode %r" % mode)
    ideal_spec = DetectorSpec("Ideal", lambda n: IdealDetector(n))
    result = SweepResult(parameter=parameter, points=list(labels))
    problems: Dict[str, int] = {spec.name: 0 for spec in specs}
    races: Dict[str, int] = {spec.name: 0 for spec in specs}
    ideal_problems = 0
    ideal_races = 0
    if mode == "shared":
        config = CampaignConfig(
            n_runs=runs_per_app,
            base_seed=base_seed,
            detectors=[ideal_spec] + specs,
        )
        done: Dict[str, CampaignResult] = {}
        pipeline.run_campaigns(
            [pipeline.Campaign(app, params, config) for app in workloads],
            trace_store,
            done.__setitem__,
            checkpoint,
            stop=run_interrupted if checkpoint is not None else None,
        )
        for campaign in done.values():
            ideal_problems += campaign.problems_detected("Ideal")
            ideal_races += campaign.races_detected("Ideal")
            for spec in specs:
                problems[spec.name] += campaign.problems_detected(
                    spec.name
                )
                races[spec.name] += campaign.races_detected(spec.name)
    else:
        for app in workloads:
            factory = get_workload(app).program_factory(params)
            for index, spec in enumerate(specs):
                campaign = run_campaign_per_config(
                    factory,
                    app,
                    CampaignConfig(
                        n_runs=runs_per_app,
                        base_seed=base_seed,
                        detectors=[ideal_spec, spec],
                    ),
                )
                if index == 0:
                    # Every per-config campaign recomputes the same
                    # Ideal pass; count the denominators once.
                    ideal_problems += campaign.problems_detected("Ideal")
                    ideal_races += campaign.races_detected("Ideal")
                problems[spec.name] += campaign.problems_detected(
                    spec.name
                )
                races[spec.name] += campaign.races_detected(spec.name)
    for spec in specs:
        result.problem_rates.append(
            problems[spec.name] / ideal_problems if ideal_problems else 0.0
        )
        result.raw_rates.append(
            races[spec.name] / ideal_races if ideal_races else 0.0
        )
    return result


def d_sensitivity(
    workloads: Sequence[str] = ("fft", "ocean", "fmm"),
    d_values: Sequence[int] = D_VALUES,
    runs_per_app: int = 8,
    params: Optional[WorkloadParams] = None,
    base_seed: int = 2006,
    mode: str = "shared",
    trace_store: Optional[PackedTraceStore] = None,
    checkpoint=None,
) -> SweepResult:
    """Detection rate as a function of the sync-read window ``D``."""
    specs = [
        _cord_point_spec("D=%d" % d, d=d) for d in d_values
    ]
    return _run_sweep(
        "D",
        specs,
        list(d_values),
        workloads,
        runs_per_app,
        params or WorkloadParams(),
        base_seed,
        mode=mode,
        trace_store=trace_store,
        checkpoint=checkpoint,
    )


def cache_sensitivity(
    workloads: Sequence[str] = ("fft", "lu", "barnes"),
    cache_sizes: Sequence[Optional[int]] = CACHE_SIZES,
    runs_per_app: int = 8,
    params: Optional[WorkloadParams] = None,
    base_seed: int = 2006,
    mode: str = "shared",
    trace_store: Optional[PackedTraceStore] = None,
    checkpoint=None,
) -> SweepResult:
    """CORD detection as a function of metadata cache capacity."""
    specs = []
    labels = []
    for size in cache_sizes:
        label = "inf" if size is None else "%dB" % size
        labels.append(label)
        specs.append(
            _cord_point_spec("C=%s" % label, cache_size=size)
        )
    return _run_sweep(
        "cache",
        specs,
        labels,
        workloads,
        runs_per_app,
        params or WorkloadParams(),
        base_seed,
        mode=mode,
        trace_store=trace_store,
        checkpoint=checkpoint,
    )
