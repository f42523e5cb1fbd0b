"""Injection campaigns: many runs, one removed sync instance each.

This is the experimental protocol of Sections 3.4 and 4.2:

1. Build the workload program and count its dynamic sync instances with a
   dry run.
2. For each of ``n_runs`` runs: draw a uniform target instance, execute
   with that instance removed under a per-run scheduler seed, and hand the
   resulting trace to every detector in the suite.
3. A run *manifests* the injected problem when the Ideal oracle flags at
   least one data race (Figure 10's percentage).  A detector *detects the
   problem* when it flags at least one race in a manifesting run
   (Figure 12/14/16); its *raw* count is how many racy accesses it flagged
   (Figure 13/15/17).

Unlike the paper -- which had to give each configuration its own hardware
run and therefore its own interleaving -- we evaluate every detector on
the *same* trace per run, which removes cross-configuration interleaving
noise (the paper's Volrend anomaly, where CORD "found two more problems
than Ideal", is an artifact of that noise).

The campaign also enforces the paper's headline soundness claim on every
run: no detector may flag an access the Ideal oracle does not flag
(no false positives).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng
from repro.detectors.base import AccessId, DetectionOutcome
from repro.resilience.guard import guarded_outcomes, mark_plan_sharing
from repro.detectors.registry import DetectorSpec, standard_suite
from repro.engine.executor import run_program
from repro.injection.injector import (
    InjectionInterceptor,
    InjectionSpec,
    count_sync_instances,
)
from repro.program.builder import Program
from repro.trace.packed import PackedTrace
from repro.trace.store import PackedTraceStore

if TYPE_CHECKING:
    from repro.workloads.base import WorkloadParams

#: A program factory: run seed -> fresh Program (workload shapes may be
#: seed-dependent; most workloads ignore the argument).
ProgramFactory = Callable[[int], Program]


@dataclass
class RunResult:
    """Outcome of one injected run across all detectors."""

    run_index: int
    seed: int
    target_index: int
    injected: bool
    removed: Optional[InjectionSpec]
    hung: bool
    n_events: int
    flagged: Dict[str, int] = field(default_factory=dict)
    problem: Dict[str, bool] = field(default_factory=dict)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def manifested(self) -> bool:
        """Did the injected problem dynamically manifest (Ideal verdict)?"""
        return self.problem.get("Ideal", False)


@dataclass
class CampaignConfig:
    """Parameters of one injection campaign."""

    n_runs: int = 20
    base_seed: int = 2006
    detectors: Optional[Sequence[DetectorSpec]] = None
    check_soundness: bool = True
    switch_probability: float = 0.1

    def detector_suite(self) -> Sequence[DetectorSpec]:
        return (
            self.detectors
            if self.detectors is not None
            else standard_suite()
        )


@dataclass
class CampaignResult:
    """All runs of a campaign plus derived Figure-level statistics."""

    workload: str
    detector_names: List[str]
    runs: List[RunResult] = field(default_factory=list)
    sync_instances: int = 0

    # -- Figure 10 ----------------------------------------------------------

    @property
    def n_manifested(self) -> int:
        return sum(1 for run in self.runs if run.manifested)

    @property
    def manifestation_rate(self) -> float:
        """Fraction of injections that produced >= 1 data race (Fig. 10)."""
        if not self.runs:
            return 0.0
        return self.n_manifested / len(self.runs)

    # -- Figures 12/14/16 ------------------------------------------------------

    def problems_detected(self, detector: str) -> int:
        return sum(
            1
            for run in self.runs
            if run.manifested and run.problem.get(detector, False)
        )

    def problem_rate(self, detector: str, baseline: str = "Ideal") -> float:
        """Problem detection rate of ``detector`` relative to ``baseline``."""
        base = self.problems_detected(baseline)
        if base == 0:
            return 0.0
        return self.problems_detected(detector) / base

    # -- Figures 13/15/17 -------------------------------------------------------

    def races_detected(self, detector: str) -> int:
        return sum(run.flagged.get(detector, 0) for run in self.runs)

    def raw_rate(self, detector: str, baseline: str = "Ideal") -> float:
        """Raw race detection rate relative to ``baseline``."""
        base = self.races_detected(baseline)
        if base == 0:
            return 0.0
        return self.races_detected(detector) / base


@dataclass
class RecordedRun:
    """One recorded injected execution, not yet analyzed.

    The record-once / analyze-many split: recording (the functional
    simulation) happens exactly once per (workload, seed, injection)
    triple and yields this object; any number of detector
    configurations then analyze the shared packed trace.  Seeds and
    targets derive only from ``(base_seed, workload, run_index)``, so
    the recorded trace -- and therefore every report computed from it --
    is bit-identical no matter which detector set or sweep mode asked
    for it.
    """

    run_index: int
    seed: int
    target_index: int
    injected: bool
    removed: Optional[InjectionSpec]
    hung: bool
    n_threads: int
    packed: PackedTrace


def record_injected_once(
    factory: ProgramFactory,
    seed: int,
    target_index: int,
    run_index: int = 0,
    switch_probability: float = 0.1,
    store: Optional[PackedTraceStore] = None,
    namespace: str = "run",
) -> RecordedRun:
    """Record one injected run (or load it from the trace store).

    With a ``store``, the simulation is keyed by
    ``(seed, target_index, switch_probability)`` under the caller's
    ``namespace`` (workload plus parameters); a hit skips the simulation
    entirely and replays the packed trace from disk.
    """
    components = (seed, target_index, switch_probability)
    if store is not None:
        hit = store.load_run(namespace, components)
        if hit is not None:
            packed, extra = hit
            return RecordedRun(
                run_index=run_index,
                seed=seed,
                target_index=target_index,
                injected=extra["injected"],
                removed=extra["removed"],
                hung=packed.hung,
                n_threads=extra["n_threads"],
                packed=packed,
            )
    program = factory(seed)
    interceptor = InjectionInterceptor(target_index)
    trace = run_program(
        program,
        seed=seed,
        interceptor=interceptor,
        switch_probability=switch_probability,
    )
    packed = trace.packed
    recorded = RecordedRun(
        run_index=run_index,
        seed=seed,
        target_index=target_index,
        injected=interceptor.removed is not None,
        removed=interceptor.removed,
        hung=trace.hung,
        n_threads=program.n_threads,
        packed=packed,
    )
    if store is not None:
        store.store_run(
            namespace,
            components,
            packed,
            {
                "injected": recorded.injected,
                "removed": recorded.removed,
                "n_threads": recorded.n_threads,
            },
        )
    return recorded


#: Kept under its historical name: the sharing heuristic now lives with
#: the degradation ladder (the other consumer of the whole-suite view).
_mark_plan_sharing = mark_plan_sharing


def trace_namespace(workload: str, params: WorkloadParams) -> str:
    """Trace-store namespace for one (workload, parameters) program.

    Every caller that records traces for a workload program must key
    them this way (workload name plus the full parameter repr), so a
    sweep, a campaign, a figure script and a service job all hit each
    other's recordings -- and a parameter change misses cleanly.
    """
    return "%s/%r" % (workload, params)


def campaign_sizing_seed(workload_name: str, base_seed: int) -> int:
    """The sizing-run seed of a campaign.

    Factored out of :func:`_run_campaign` (the forks are name-based and
    order-independent, so recreating the rng here derives the identical
    seed) so planners can find the cached sync-instance count without
    running anything.
    """
    rng = DeterministicRng(base_seed, "campaign/%s" % workload_name)
    return rng.fork("sizing").randint(0, 2**31 - 1)


def campaign_run_keys(
    workload_name: str,
    config: CampaignConfig,
    instance_count: int,
) -> List[Tuple[int, int, int]]:
    """The ``(run_index, seed, target)`` schedule of a campaign.

    Exactly the derivation :func:`_run_campaign` performs (same rng
    construction, same draw order within each run fork), exposed so the
    run-level pipeline can pre-compute every run's store key without
    consuming the campaign's own rng.
    """
    rng = DeterministicRng(config.base_seed, "campaign/%s" % workload_name)
    keys = []
    for run_index in range(config.n_runs):
        run_rng = rng.fork("run%d" % run_index)
        seed = run_rng.randint(0, 2**31 - 1)
        target = run_rng.randrange(instance_count)
        keys.append((run_index, seed, target))
    return keys


def detectors_digest(
    detectors: Sequence[DetectorSpec], check_soundness: bool
) -> str:
    """Digest identifying a detector suite's analysis outputs.

    Folded into the store keys of outcome bundles and committed
    campaigns, so a different detector set (or soundness setting)
    misses cleanly instead of resuming into foreign results.
    """
    ident = repr((
        tuple(spec.name for spec in detectors), bool(check_soundness),
    ))
    return hashlib.sha256(ident.encode()).hexdigest()[:12]


# -- store keys: every value entry of a campaign, under its trace_namespace --


def sizing_key(sizing_seed: int) -> Tuple:
    """Store key of a workload's dynamic sync-instance count."""
    return ("sync_instances", sizing_seed)


def bundle_key(
    seed: int, target: int, switch_probability: float, digest: str
) -> Tuple:
    """Store key of one run's outcome bundle (``digest``:
    :func:`detectors_digest`)."""
    return ("outcomes", seed, target, switch_probability, digest)


def campaign_key(config: CampaignConfig) -> Tuple:
    """Store key of a campaign's committed :class:`CampaignResult`."""
    return (
        "campaign", config.n_runs, config.base_seed,
        config.switch_probability,
        detectors_digest(config.detector_suite(), config.check_soundness),
    )


def analyze_recorded(
    recorded: RecordedRun,
    detectors: Sequence[DetectorSpec],
    check_soundness: bool = True,
    store: Optional[PackedTraceStore] = None,
    namespace: Optional[str] = None,
    switch_probability: Optional[float] = None,
) -> RunResult:
    """Evaluate every detector on one recorded run's packed trace.

    Analysis runs behind the degradation ladder
    (:mod:`repro.resilience.guard`): CORD detectors differing only in D
    share one interval-fused pass when possible (see
    :mod:`repro.cord.fused`), every other configuration takes its packed
    kernel/columnar pass, and any exception in an accelerated path
    re-runs the affected configuration on the next-slower tier -- down
    to the pure-python scalar reference -- instead of failing the run.
    With ``REPRO_CROSS_CHECK=1`` the lower tiers are also run eagerly
    and asserted byte-identical.

    With a ``store`` and a ``switch_probability``, every detector's
    outcome is additionally persisted as a durable per-config *slice*
    (written after the soundness check) and any slice already on disk
    is reused instead of recomputed.  A resumed run therefore
    re-analyzes only the configurations the interruption cut off, and
    assembles a bit-identical :class:`RunResult` either way (the ladder
    guarantees fused/kernel/scalar equivalence, and result dicts are
    filled in canonical detector order on both paths).

    The slices of one run live together in a single *outcome bundle*
    entry (one atomic write per run, not one per config): the analysis
    pass computes every missing configuration in one
    :func:`guarded_outcomes` call anyway, so bundling loses no real
    granularity while keeping the checkpoint overhead within its <= 2%
    budget (see ``benchmarks/bench_sensitivity.py``).
    """
    result = RunResult(
        run_index=recorded.run_index,
        seed=recorded.seed,
        target_index=recorded.target_index,
        injected=recorded.injected,
        removed=recorded.removed,
        hung=recorded.hung,
        n_events=len(recorded.packed),
    )
    persist = store is not None and switch_probability is not None
    slices: Dict[str, Dict] = {}
    if persist:
        key = bundle_key(
            recorded.seed, recorded.target_index, switch_probability,
            detectors_digest(detectors, check_soundness),
        )
        slices = _load_bundle_slices(store, namespace, key, detectors)
    missing = [spec for spec in detectors if spec.name not in slices]
    fresh: Dict[str, DetectionOutcome] = (
        guarded_outcomes(missing, recorded.n_threads, recorded.packed)
        if missing else {}
    )
    _assemble_run(result, detectors, check_soundness, slices, fresh)

    # Persist the merged bundle (post-soundness, rebuilt in canonical
    # detector order so a resume-written bundle is byte-identical to an
    # uninterrupted run's).  A run with nothing fresh rewrites nothing.
    if persist and fresh:
        store.store_value(
            namespace, key,
            _merged_bundle(detectors, slices, fresh, result),
        )
    return result


def _load_bundle_slices(
    store: PackedTraceStore,
    namespace: str,
    key: Tuple,
    detectors: Sequence[DetectorSpec],
) -> Dict[str, Dict]:
    """The run's durable per-config slices already on disk.

    The bundle itself is the durable record: no journal entry is needed
    for a slice to hit.
    """
    slices: Dict[str, Dict] = {}
    bundle = store.load_value(namespace, key)
    if isinstance(bundle, dict):
        for spec in detectors:
            value = bundle.get(spec.name)
            if isinstance(value, dict) and {"raw", "problem", "counters",
                                            "flagged"} <= set(value):
                slices[spec.name] = value
    return slices


def _assemble_run(
    result: RunResult,
    detectors: Sequence[DetectorSpec],
    check_soundness: bool,
    slices: Dict[str, Dict],
    fresh: Dict[str, DetectionOutcome],
) -> None:
    """Fill ``result`` from durable slices plus fresh outcomes.

    Canonical-order assembly: durable counters already carry their
    post-soundness ``false_positive_accesses`` entry; fresh ones gain
    it below, appended last exactly as :func:`_check_soundness` does.
    """
    for spec in detectors:
        name = spec.name
        if name in slices:
            result.flagged[name] = slices[name]["raw"]
            result.problem[name] = slices[name]["problem"]
            result.counters[name] = dict(slices[name]["counters"])
        else:
            outcome = fresh[name]
            result.flagged[name] = outcome.raw_count
            result.problem[name] = outcome.problem_detected
            result.counters[name] = dict(outcome.counters)

    has_ideal = any(spec.name == "Ideal" for spec in detectors)
    if check_soundness and has_ideal:
        if "Ideal" in fresh:
            oracle_flagged: Set[AccessId] = fresh["Ideal"].flagged
            oracle_problem = fresh["Ideal"].problem_detected
        else:
            oracle_flagged = set(slices["Ideal"]["flagged"])
            oracle_problem = slices["Ideal"]["problem"]
        for spec in detectors:
            name = spec.name
            if name == "Ideal" or name not in fresh:
                continue  # durable slices passed soundness when minted
            _soundness_one(
                name,
                fresh[name].flagged,
                fresh[name].problem_detected,
                fresh[name].raw_count,
                oracle_flagged,
                oracle_problem,
                result,
            )


def _merged_bundle(
    detectors: Sequence[DetectorSpec],
    slices: Dict[str, Dict],
    fresh: Dict[str, DetectionOutcome],
    result: RunResult,
) -> Dict[str, Dict]:
    return {
        spec.name: (
            slices[spec.name]
            if spec.name in slices
            else {
                "raw": result.flagged[spec.name],
                "problem": result.problem[spec.name],
                "counters": result.counters[spec.name],
                "flagged": tuple(sorted(fresh[spec.name].flagged)),
            }
        )
        for spec in detectors
    }


def format_campaign_report(campaign: CampaignResult) -> str:
    """Render a campaign's summary report (ends with a newline).

    This is the *canonical* textual form of a campaign: the CLI
    ``inject`` command prints it and the campaign service stores and
    streams it, so "byte-identical reports across execution paths" is a
    claim about one shared renderer, not two formatting functions kept
    in sync by hand.
    """
    lines = [
        "workload      : %s" % campaign.workload,
        "sync instances: %d" % campaign.sync_instances,
        "manifested    : %d / %d runs" % (
            campaign.n_manifested, len(campaign.runs)),
    ]
    for name in campaign.detector_names:
        lines.append("  %-10s problems=%-3d races=%-4d" % (
            name,
            campaign.problems_detected(name),
            campaign.races_detected(name),
        ))
    return "\n".join(lines) + "\n"


def run_injected_once(
    factory: ProgramFactory,
    seed: int,
    target_index: int,
    detectors: Sequence[DetectorSpec],
    run_index: int = 0,
    check_soundness: bool = True,
    switch_probability: float = 0.1,
) -> RunResult:
    """Execute one injected run and evaluate every detector on its trace."""
    program = factory(seed)
    interceptor = InjectionInterceptor(target_index)
    trace = run_program(
        program,
        seed=seed,
        interceptor=interceptor,
        switch_probability=switch_probability,
    )
    result = RunResult(
        run_index=run_index,
        seed=seed,
        target_index=target_index,
        injected=interceptor.removed is not None,
        removed=interceptor.removed,
        hung=trace.hung,
        n_events=len(trace.events),
    )
    outcomes: Dict[str, DetectionOutcome] = {}
    for spec in detectors:
        outcome = spec.build(program.n_threads).run(trace)
        outcomes[spec.name] = outcome
        result.flagged[spec.name] = outcome.raw_count
        result.problem[spec.name] = outcome.problem_detected
        result.counters[spec.name] = dict(outcome.counters)
    if check_soundness and "Ideal" in outcomes:
        _check_soundness(outcomes, result)
    return result


def _check_soundness(
    outcomes: Dict[str, DetectionOutcome], result: RunResult
) -> None:
    """Enforce the paper's no-false-alarm guarantee.

    Two levels, both asserted:

    * **Race-free executions are silent**: if the Ideal happens-before
      oracle found nothing, no detector may report anything.  This is the
      production-run guarantee (properly labeled programs never alarm).
    * **No false problem reports**: a detector reporting races in a run
      implies the run really contains races.  (Trivial given the first
      rule, but stated for clarity.)

    Access-level exactness is deliberately *not* required on racy runs:
    the paper's clock updates on data races (its Figure 3 choice) let a
    real race inflate a thread's clock, after which a genuinely ordered
    pair can look reversed to a scalar clock.  Such extra reports only
    ever occur in runs that already contain real races -- "when in doubt,
    any pair of accesses can be treated as a race" -- and the per-run
    ``false_positive_accesses`` counter tracks how often it happens.
    """
    oracle = outcomes["Ideal"]
    for name, outcome in outcomes.items():
        if name == "Ideal":
            continue
        _soundness_one(
            name,
            outcome.flagged,
            outcome.problem_detected,
            outcome.raw_count,
            oracle.flagged,
            oracle.problem_detected,
            result,
        )


def _soundness_one(
    name: str,
    flagged: Set[AccessId],
    problem_detected: bool,
    raw_count: int,
    oracle_flagged: Set[AccessId],
    oracle_problem: bool,
    result: RunResult,
) -> None:
    """Soundness check for one detector outcome against the oracle.

    Factored out of :func:`_check_soundness` so :func:`analyze_recorded`
    can check only the freshly computed outcomes while mixing in durable
    slices (which passed this check when they were minted).
    """
    extra = flagged - oracle_flagged
    result.counters.setdefault(name, {})[
        "false_positive_accesses"
    ] = len(extra)
    if problem_detected and not oracle_problem:
        raise SimulationError(
            "detector %s reported %d race(s) in run %d, but the "
            "execution is data-race-free (first: %s)"
            % (name, raw_count, result.run_index, sorted(flagged)[:3])
        )


def run_campaign(
    factory: ProgramFactory,
    workload_name: str,
    config: Optional[CampaignConfig] = None,
) -> CampaignResult:
    """Run a full injection campaign for one workload, in memory.

    Record-once / analyze-many: each run is simulated exactly once and
    its packed trace is shared by every detector.  Because seeds and
    targets derive only from ``(base_seed, workload, run_index)``,
    results are bit-identical to per-config simulation (asserted by the
    record-once test suite).

    Journaled and store-backed campaigns (the Suite, the sweep, service
    jobs) run as stage tasks on :func:`repro.experiments.pipeline.drive`
    instead, with identical results.
    """
    return _run_campaign(factory, workload_name, config, use_recorded=True)


def run_campaign_per_config(
    factory: ProgramFactory,
    workload_name: str,
    config: Optional[CampaignConfig] = None,
) -> CampaignResult:
    """The legacy per-configuration protocol: simulate inside each run.

    Every run re-executes the program and feeds each detector the
    materialized event objects (:func:`run_injected_once`) -- the cost
    model of giving each configuration its own campaign.  Results are
    bit-identical to :func:`run_campaign` with the same arguments (the
    record-once suite asserts it); this path exists as the baseline the
    record-once speedup is measured against.
    """
    return _run_campaign(factory, workload_name, config, use_recorded=False)


def _run_campaign(
    factory: ProgramFactory,
    workload_name: str,
    config: Optional[CampaignConfig],
    use_recorded: bool,
) -> CampaignResult:
    config = config or CampaignConfig()
    detectors = config.detector_suite()
    sizing_seed = campaign_sizing_seed(workload_name, config.base_seed)
    instance_count = count_sync_instances(factory(sizing_seed), sizing_seed)
    if instance_count == 0:
        raise SimulationError(
            "workload %r has no injectable sync instances" % workload_name
        )
    result = CampaignResult(
        workload=workload_name,
        detector_names=[spec.name for spec in detectors],
        sync_instances=instance_count,
    )
    for run_index, seed, target in campaign_run_keys(
        workload_name, config, instance_count
    ):
        if use_recorded:
            recorded = record_injected_once(
                factory,
                seed,
                target,
                run_index=run_index,
                switch_probability=config.switch_probability,
            )
            run = analyze_recorded(
                recorded, detectors, config.check_soundness
            )
        else:
            run = run_injected_once(
                factory,
                seed,
                target,
                detectors,
                run_index=run_index,
                check_soundness=config.check_soundness,
                switch_probability=config.switch_probability,
            )
        result.runs.append(run)
    return result
