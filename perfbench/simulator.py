"""The two in-process workloads: ``figures-cold`` and ``sweep-warm``.

Both drive the campaign layer one injected run at a time through the
public functions ``cord-repro`` uses, at the CLI defaults: every
registry app, 12 runs per app, base seed 2006, default parameters,
serial, soundness checks on.  One op is one (app, run).

The workload seed only permutes the order of the ops: the inputs
themselves are the CLI defaults, which is what keeps the ``eventloop``
defect (see README.md) in every pass.
"""

from __future__ import annotations

import functools
import hashlib
import random
import resource
import shutil
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.cord.config import CordConfig
from repro.cord.detector import CordDetector
from repro.detectors.ideal import IdealDetector
from repro.detectors.registry import DetectorSpec, standard_suite
from repro.experiments import figures
from repro.experiments.runner import Suite, SuiteConfig, trace_namespace
from repro.experiments.sensitivity import D_VALUES, SweepResult
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    analyze_recorded,
    campaign_run_keys,
    campaign_sizing_seed,
    format_campaign_report,
    record_injected_once,
)
from repro.injection.injector import count_sync_instances
from repro.trace.store import PackedTraceStore
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload, workload_names

from passes import PassResult

PARAMS = WorkloadParams()
CONFIG = CampaignConfig(n_runs=12, base_seed=2006)

#: CORD outcome counters summed over every CORD configuration.
CORD_COUNTERS = (
    "race_checks", "fast_hits", "clock_changes",
    "memts_update_broadcasts", "log_bytes",
)

FIGURE_VIEWS = (
    figures.figure10, figures.figure12, figures.figure13,
    figures.figure14, figures.figure15, figures.figure16,
    figures.figure17,
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_suite() -> List[DetectorSpec]:
    """Ideal as the oracle plus one CORD point per swept D."""
    return [DetectorSpec("Ideal", IdealDetector)] + [
        DetectorSpec("D=%d" % d, functools.partial(_cord_at, d))
        for d in D_VALUES
    ]


def _cord_at(d: int, n_threads: int) -> CordDetector:
    return CordDetector(CordConfig(d=d), n_threads)


class _DoneSuite(Suite):
    """A Suite whose campaigns were already driven run by run."""

    def __init__(self, campaigns: Dict[str, CampaignResult]):
        super().__init__(
            SuiteConfig(workloads=tuple(campaigns)), jobs=1
        )
        self._done = campaigns

    def campaigns(self) -> Dict[str, CampaignResult]:
        return dict(self._done)


class _SimulatorWorkload:
    """Shared by both: sizing, per-run ops, failure accounting, checks."""

    def __init__(self, run_dir, seed: int, expected: Optional[Dict]):
        """``expected=None`` records a pass's outputs without checking."""
        self.run_dir = run_dir
        self.expected = expected
        self.known_failures = {
            tuple(item) for item in (expected or {}).get(
                "known_failures", ())
        }
        #: Outputs of the latest pass, in the stored-expectations layout.
        self.observed: Dict = {}
        rng = random.Random(seed)
        self.rounds = [
            rng.sample(workload_names(), len(workload_names()))
            for _ in range(CONFIG.n_runs)
        ]
        self.suite = self.detectors()

    def detectors(self) -> List[DetectorSpec]:
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def check_passes(self, results: List[PassResult]) -> None:
        """Outputs are checked inside each pass: digests cost nothing."""

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which runs the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    #: Where recordings come from: None records every run afresh.
    store: Optional[PackedTraceStore] = None

    def record(self, app, factory, seed, target, run_index):
        return record_injected_once(
            factory, seed, target, run_index=run_index,
            switch_probability=CONFIG.switch_probability,
            store=self.store, namespace=trace_namespace(app, PARAMS),
        )

    def sizing(self, app: str, factory, tracer) -> int:
        with tracer.span("injection.sizing"):
            sizing_seed = campaign_sizing_seed(app, CONFIG.base_seed)
            return count_sync_instances(factory(sizing_seed), sizing_seed)

    def drive(self, tracer) -> Tuple[Dict[str, CampaignResult], PassResult]:
        """Every (app, run) op of one pass.

        All apps are sized first.  The ops then go round by round (run 0
        of every app, then run 1, ...), each round in its own seeded app
        order, so each app's ops are spread over the whole pass and the
        latency percentiles do not hinge on the host's speed during one
        app's few seconds.
        """
        result = PassResult()
        failed: List[List] = []
        names = [spec.name for spec in self.suite]
        factories, campaigns, keys = {}, {}, {}
        for app in workload_names():
            factories[app] = _traced_factory(
                get_workload(app).program_factory(PARAMS), tracer
            )
            instances = self.sizing(app, factories[app], tracer)
            campaigns[app] = CampaignResult(
                app, list(names), sync_instances=instances
            )
            keys[app] = campaign_run_keys(app, CONFIG, instances)
        events = dict.fromkeys(campaigns, 0)
        counters = {app: dict.fromkeys(CORD_COUNTERS, 0)
                    for app in campaigns}
        for round_index, order in enumerate(self.rounds):
            for app in order:
                run_index, seed, target = keys[app][round_index]
                op = result.begin()
                start = time.perf_counter()
                run = None
                with tracer.span("op", op):
                    with tracer.span("injection.record"):
                        recorded = self.record(
                            app, factories[app], seed, target, run_index
                        )
                    events[app] += len(recorded.packed)
                    try:
                        with tracer.span("injection.analyze"):
                            run = analyze_recorded(
                                recorded, self.suite,
                                CONFIG.check_soundness,
                            )
                    except SimulationError as exc:
                        result.fail("%s run %d: %s" % (app, run_index, exc))
                        failed.append([app, run_index])
                result.latencies.append(time.perf_counter() - start)
                del recorded
                # Known-defect runs stay out of every checked output, so
                # a fix shows as a fall in fail_frac, not a check failure.
                if run is None or (app, run_index) in self.known_failures:
                    continue
                campaigns[app].runs.append(run)
                for name, values in run.counters.items():
                    if name.startswith(("CORD", "D=")):
                        for key in CORD_COUNTERS:
                            counters[app][key] += values.get(key, 0)
        self.observed = {"known_failures": sorted(failed), "apps": {}}
        for app, campaign in campaigns.items():
            self.check(result, "apps", app, {
                "report_sha256": sha256(format_campaign_report(campaign)),
                "events": events[app],
                "cord": counters[app],
            })
        for app, run_index in failed:
            if (app, run_index) not in self.known_failures:
                result.mismatch("%s run %d failed and is not a known "
                                "defect" % (app, run_index))
        result.counts["engine.events"] = sum(events.values())
        for key in CORD_COUNTERS:
            result.counts["cord." + key] = sum(
                c[key] for c in counters.values()
            )
        return campaigns, result

    def check(self, result, section: str, key: str, got) -> None:
        """Compare one output with its stored value and keep it."""
        if section:
            self.observed[section][key] = got
            want = (self.expected or {}).get(section, {}).get(key)
        else:
            self.observed[key] = got
            want = (self.expected or {}).get(key)
        if self.expected is None or got == want:
            return
        if isinstance(got, dict) and isinstance(want, dict):
            for field in sorted(set(got) | set(want)):
                if got.get(field) != want.get(field):
                    result.mismatch("%s %s %s: got %r, stored %r" % (
                        section, key, field, got.get(field), want.get(field)))
        else:
            result.mismatch("%s %s: got %r, stored %r"
                            % (section, key, got, want))


def _traced_factory(factory, tracer):
    if not tracer.enabled:
        return factory
    return tracer.wrap("workloads.build", factory)


class FiguresCold(_SimulatorWorkload):
    """``cord-repro figures`` at its defaults, one injected run per op."""

    def detectors(self) -> List[DetectorSpec]:
        return list(standard_suite())

    def run_pass(self, index: int, tracer) -> PassResult:
        start = time.perf_counter()
        campaigns, result = self.drive(tracer)
        done = _DoneSuite(campaigns)
        with tracer.span("experiments.views"):
            views = [view(done) for view in FIGURE_VIEWS]
        with tracer.span("timingsim.fig11"):
            views.append(figures.figure11(params=PARAMS))
        result.wall_s = time.perf_counter() - start
        self.check(result, "", "figures_sha256", sha256(
            "\n\n".join(view.render() for view in views)
        ))
        return result


class SweepWarm(_SimulatorWorkload):
    """The 8-point D sweep over recordings already in a trace store."""

    def detectors(self) -> List[DetectorSpec]:
        return sweep_suite()

    def setup(self) -> None:
        root = self.run_dir / "store"
        shutil.rmtree(root, ignore_errors=True)
        self.store = PackedTraceStore(root)
        self.instances: Dict[str, int] = {}
        for app in workload_names():
            factory = get_workload(app).program_factory(PARAMS)
            sizing_seed = campaign_sizing_seed(app, CONFIG.base_seed)
            self.instances[app] = count_sync_instances(
                factory(sizing_seed), sizing_seed
            )
            for run_index, seed, target in campaign_run_keys(
                app, CONFIG, self.instances[app]
            ):
                self.record(app, factory, seed, target, run_index)

    def close(self) -> None:
        shutil.rmtree(self.run_dir / "store", ignore_errors=True)

    def sizing(self, app: str, factory, tracer) -> int:
        return self.instances[app]

    def run_pass(self, index: int, tracer) -> PassResult:
        before = dict(self.store.stats)
        start = time.perf_counter()
        campaigns, result = self.drive(tracer)
        sweep = SweepResult(parameter="D", points=list(D_VALUES))
        ideal_problems = sum(
            c.problems_detected("Ideal") for c in campaigns.values()
        )
        ideal_races = sum(
            c.races_detected("Ideal") for c in campaigns.values()
        )
        for d in D_VALUES:
            name = "D=%d" % d
            problems = sum(
                c.problems_detected(name) for c in campaigns.values()
            )
            races = sum(c.races_detected(name) for c in campaigns.values())
            sweep.problem_rates.append(
                problems / ideal_problems if ideal_problems else 0.0
            )
            sweep.raw_rates.append(
                races / ideal_races if ideal_races else 0.0
            )
        result.wall_s = time.perf_counter() - start
        self.check(result, "", "sweep_sha256", sha256(sweep.render()))
        delta = {
            key: self.store.stats[key] - before.get(key, 0)
            for key in ("mmap_hits", "run_hits", "run_misses")
        }
        if delta["run_misses"]:
            result.mismatch(
                "warm sweep re-recorded %d run(s)" % delta["run_misses"]
            )
        result.counts["trace.mmap_hits"] = delta["mmap_hits"]
        result.counts["trace.run_hits"] = delta["run_hits"]
        return result
