"""The shared experiment suite: campaigns once, figures many.

A :class:`Suite` lazily runs one injection campaign per workload (with the
full detector suite) and caches the :class:`CampaignResult`; Figures 10 and
12-17 are all views over the same campaign data, exactly as the paper's
per-configuration columns are views over its injection runs.

Campaigns are embarrassingly parallel -- every (workload, config) pair is
an independent deterministic computation -- so :meth:`Suite.campaigns`
fans missing campaigns out over supervised worker processes (``jobs``
argument, or the ``REPRO_JOBS`` environment variable).  Results are
bit-identical regardless of ``jobs``: each campaign derives its seeds
from ``(base_seed, workload)`` alone, and the fan-out only changes
*where* a campaign runs, never what it computes.  The scheduler follows
from what the suite can observe: a cache directory and ``jobs > 1`` run
the run-level pipeline (:mod:`repro.experiments.pipeline`), whose stage
tasks meet in the trace store; no cache directory, ``jobs > 1`` and more
than one pending campaign run one campaign per pool task; everything
else runs serially.

An optional on-disk cache (``cache_dir`` argument, or ``REPRO_CACHE_DIR``)
persists finished campaigns keyed by the full parameter tuple, so
re-running a figure script after an interruption -- or a second script
over the same configuration -- skips straight to the views.

Resilience: the fan-out runs under the supervisor
(:mod:`repro.resilience.supervisor`) -- per-task deadlines
(``REPRO_TASK_TIMEOUT``), retries with backoff (``REPRO_MAX_RETRIES``),
and an in-process serial fallback when the pool is poisoned -- and every
cache entry is wrapped in the checksummed frame from
:mod:`repro.trace.store`, so a torn or bit-flipped pickle is detected,
quarantined under ``<cache>/quarantine/``, counted in
:attr:`Suite.warnings`, and recomputed.  Results stay bit-identical no
matter which path (first try, retry, or serial fallback) computed them;
see ``docs/resilience.md``.

Crash consistency: with a cache directory the suite is *checkpointed*
(:mod:`repro.resilience.journal`): every campaign's lifecycle is logged
to a per-run write-ahead journal under ``<cache>/journal/``, all cache
writes are atomic (tmp -> fsync -> rename), SIGTERM/SIGINT drain the
fan-out and raise :class:`~repro.common.errors.InterruptedRunError`
(exit code 71 at the CLI -- "interrupted, resumable"), and a re-run over
the same cache directory resumes to bit-identical results.  Startup
garbage-collects the litter a killed process leaves behind (orphaned
``*.tmp.*`` files, stale journals, oversized quarantines), counted in
:attr:`Suite.warnings`.  Journaling is per-workload here; the serial
sweep path journals at per-run/per-config granularity (see
:func:`repro.injection.campaign.run_campaign`).
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.env import env_number
from repro.common.errors import (
    InterruptedRunError,
    SimulationError,
    StoreCorruptError,
)
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    campaign_run_keys,
    campaign_sizing_seed,
    run_campaign,
)
from repro.resilience.checkpoint import (
    GracefulShutdown,
    atomic_write_bytes,
    canonicalize,
)
from repro.resilience.journal import RunCheckpoint
from repro.resilience.supervisor import RunReport, Supervisor, TaskOutcome
from repro.trace.store import (
    PackedTraceStore,
    frame_payload,
    unframe_payload,
)
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import all_workloads, get_workload

logger = logging.getLogger("repro.experiments.runner")

#: Bump when CampaignResult's pickle layout changes incompatibly; stale
#: cache entries then miss instead of unpickling garbage.  2 = entries
#: carry the checksummed store frame.
_CACHE_SCHEMA = 2

#: Unpickle failures that mean version skew (stale code), not damage:
#: the frame already vouched for the bytes.
_STALE_ERRORS = (AttributeError, ImportError, TypeError, ValueError,
                 pickle.UnpicklingError, EOFError, IndexError)


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default: 1, serial)."""
    return env_number("REPRO_JOBS", 1, 1)


def default_cache_dir() -> Optional[Path]:
    """On-disk campaign cache from ``REPRO_CACHE_DIR`` (default: off)."""
    raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(raw) if raw else None


@dataclass(frozen=True)
class SuiteConfig:
    """Suite-wide knobs.

    Attributes:
        runs_per_app: injection runs per application.  The paper uses
            20-100 per app; the default here keeps the full 12-app suite
            in benchmark-friendly time while preserving the aggregate
            shapes (averages over all apps rest on 100+ runs).
        base_seed: master seed.
        workloads: subset of application names (default: all twelve).
        params: workload scaling parameters.
    """

    runs_per_app: int = 12
    base_seed: int = 2006
    workloads: Optional[Sequence[str]] = None
    params: WorkloadParams = field(default_factory=WorkloadParams)

    def workload_names(self) -> List[str]:
        if self.workloads is not None:
            return list(self.workloads)
        return [spec.name for spec in all_workloads()]


def trace_namespace(workload: str, params: WorkloadParams) -> str:
    """Trace-store namespace for one (workload, parameters) program.

    Every caller that records traces for a workload program must key
    them this way (workload name plus the full parameter repr), so a
    sweep, a campaign, and a figure script all hit each other's
    recordings -- and a parameter change misses cleanly.
    """
    return "%s/%r" % (workload, params)


#: One unit of pool work: everything a worker needs to rebuild the
#: campaign (must stay picklable for spawn-based platforms).  Only
#: uncached suites run campaign tasks, so there is no trace store.
_CampaignTask = Tuple[str, int, int, WorkloadParams]


def _run_campaign_task(task: _CampaignTask) -> Tuple[str, CampaignResult]:
    """Pool worker: run one workload's campaign (module-level, picklable)."""
    name, n_runs, base_seed, params = task
    spec = get_workload(name)
    result = run_campaign(
        spec.program_factory(params),
        name,
        CampaignConfig(n_runs=n_runs, base_seed=base_seed),
        trace_namespace=trace_namespace(name, params),
    )
    return name, result


class Suite:
    """Runs and caches the per-workload injection campaigns.

    Args:
        config: suite configuration.
        jobs: campaign worker processes; ``None`` reads ``REPRO_JOBS``
            (default 1 = serial in-process, no pool spawned).
        cache_dir: directory for pickled campaign results; ``None`` reads
            ``REPRO_CACHE_DIR`` (default: no on-disk cache).
    """

    def __init__(
        self,
        config: Optional[SuiteConfig] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
    ):
        self.config = config or SuiteConfig()
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self._campaigns: Dict[str, CampaignResult] = {}
        #: Cache-health counters (``corrupt``, ``io_errors``, ``stale``):
        #: every swallowed cache problem is counted here, never silent.
        self.warnings: Counter = Counter()
        #: The supervisor's :class:`RunReport` from the most recent
        #: pooled :meth:`campaigns` call (None when nothing fanned out).
        self.last_report: Optional[RunReport] = None

    @property
    def trace_store_dir(self) -> Optional[Path]:
        """Recorded-trace store directory (under the campaign cache)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "traces"

    def trace_store(self) -> Optional[PackedTraceStore]:
        """The suite's recorded-trace store, or None (no cache dir)."""
        root = self.trace_store_dir
        return PackedTraceStore(root) if root is not None else None

    # -- on-disk cache -------------------------------------------------------

    def _cache_key(self, workload: str) -> str:
        """Digest over everything that determines a campaign's result."""
        ident = repr((
            _CACHE_SCHEMA,
            workload,
            self.config.runs_per_app,
            self.config.base_seed,
            self.config.params,
        ))
        return hashlib.sha256(ident.encode()).hexdigest()[:16]

    def _cache_path(self, workload: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / (
            "campaign-%s-%s.pkl" % (workload, self._cache_key(workload))
        )

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt cache entry to ``<cache>/quarantine/`` + reason."""
        qdir = self.cache_dir / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            (qdir / (path.name + ".reason.txt")).write_text(
                "quarantined campaign-cache entry\n"
                "original path: %s\n"
                "reason: %s: %s\n" % (path, type(exc).__name__, exc)
            )
        except OSError as move_exc:
            logger.warning(
                "could not quarantine corrupt cache entry %s: %s",
                path, move_exc,
            )
        logger.warning(
            "quarantined corrupt campaign-cache entry %s: %s", path, exc
        )

    def _cache_load(self, workload: str) -> Optional[CampaignResult]:
        """A cached campaign, or None -- counting every swallowed reason.

        Only the *expected* failure set is caught: unreadable files
        (``OSError``), frame/checksum violations
        (:class:`StoreCorruptError`, quarantined), and version-skewed
        pickles (stale).  Anything else is a real bug and propagates.
        """
        path = self._cache_path(workload)
        if path is None:
            return None
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.warnings["io_errors"] += 1
            logger.warning("unreadable cache entry %s: %s", path, exc)
            return None
        try:
            result = pickle.loads(
                unframe_payload(raw, "cache entry %s" % path.name)
            )
        except StoreCorruptError as exc:
            self.warnings["corrupt"] += 1
            self._quarantine(path, exc)
            return None
        except _STALE_ERRORS:
            self.warnings["stale"] += 1
            return None
        if not isinstance(result, CampaignResult):
            self.warnings["corrupt"] += 1
            self._quarantine(
                path,
                StoreCorruptError(
                    "cache entry holds %r, not a CampaignResult"
                    % type(result).__name__
                ),
            )
            return None
        return result

    def _cache_store(self, workload: str, result: CampaignResult) -> None:
        path = self._cache_path(workload)
        if path is None:
            return
        # Atomic (tmp -> fsync -> rename) so a concurrent reader or a
        # killed writer never leaves a half-written pickle; the
        # checksummed frame catches the remaining torn-write windows
        # (power loss after the rename).  Canonicalized so a resumed
        # run -- whose results are partly rebuilt from durable slices --
        # writes bytes identical to an uninterrupted run's.
        payload = frame_payload(
            pickle.dumps(
                canonicalize(result), protocol=pickle.HIGHEST_PROTOCOL
            )
        )
        atomic_write_bytes(path, payload)

    # -- campaign execution --------------------------------------------------

    def _task(self, workload: str) -> _CampaignTask:
        return (
            workload,
            self.config.runs_per_app,
            self.config.base_seed,
            self.config.params,
        )

    def campaign(self, workload: str) -> CampaignResult:
        """The (cached) campaign for one application.

        A cache miss runs through the same checkpointed runner as
        :meth:`campaigns` -- journaled, drain-able, and accounted in
        :attr:`last_report` -- so a single-workload script gets the
        identical crash-consistency story (and, with ``jobs > 1``, the
        run-level pipeline's intra-campaign parallelism).  Without a
        cache directory the campaign runs inline, unjournaled, exactly
        as before.
        """
        if workload not in self._campaigns:
            cached = self._cache_load(workload)
            if cached is not None:
                self._campaigns[workload] = cached
            else:
                self._run_pending([workload], [])
        return self._campaigns[workload]

    def campaigns(self) -> Dict[str, CampaignResult]:
        """All campaigns (running any that have not run yet).

        Missing campaigns run under the supervisor when ``jobs > 1``:
        each task gets a deadline, dead or hung workers are detected and
        retried with backoff, and a poisoned pool falls back to
        in-process serial execution (``self.last_report`` holds the
        per-task outcomes).  Disk cache hits never occupy a worker, and
        results land in ``self._campaigns`` -- and in the on-disk cache
        -- in canonical workload order regardless of completion order,
        retries, or fallbacks, so two identical runs leave identical
        state behind.

        With a cache directory the run is *checkpointed*: campaign
        lifecycles are journaled, SIGTERM/SIGINT (or the chaos
        ``sigterm_drain`` fault) drain the workers, commit every
        finished campaign, flush the journal, and raise
        :class:`InterruptedRunError` -- after which re-running over the
        same cache directory resumes and produces bit-identical caches
        and reports.
        """
        missing = [
            name
            for name in self.config.workload_names()
            if name not in self._campaigns
        ]
        pending: List[str] = []
        cache_hits: List[str] = []
        for name in missing:
            cached = self._cache_load(name)
            if cached is not None:
                self._campaigns[name] = cached
                cache_hits.append(name)
            else:
                pending.append(name)
        if pending:
            self._run_pending(pending, cache_hits)
        # Canonical workload order, independent of which entries were
        # cache hits: figure tables iterate this dict, and their row
        # order must not depend on cache state.
        ordered = {
            name: self._campaigns[name]
            for name in self.config.workload_names()
            if name in self._campaigns
        }
        for name, result in self._campaigns.items():
            if name not in ordered:
                ordered[name] = result
        return ordered

    # -- checkpointed execution ------------------------------------------------

    def _identity(self) -> tuple:
        """Everything that pins this suite's results (journal identity)."""
        return (
            "suite",
            _CACHE_SCHEMA,
            self.config.runs_per_app,
            self.config.base_seed,
            tuple(self.config.workload_names()),
            repr(self.config.params),
        )

    def _open_checkpoint(self) -> Optional[RunCheckpoint]:
        """The suite's run checkpoint, or None without a cache dir.

        Opening also performs the startup housekeeping -- orphaned
        ``*.tmp.*`` collection, stale-journal pruning, and quarantine
        GC for both the campaign cache and the trace store -- whose
        counts land in :attr:`warnings` (``tmp_pruned``,
        ``journals_pruned``, ``quarantine_pruned``, ``resumed``).
        """
        if self.cache_dir is None:
            return None
        quarantine_dirs = [self.cache_dir / "quarantine"]
        store_dir = self.trace_store_dir
        if store_dir is not None:
            quarantine_dirs.append(store_dir / "quarantine")
        ckpt = RunCheckpoint.open(
            self.cache_dir,
            identity=self._identity(),
            kind="suite",
            quarantine_dirs=tuple(quarantine_dirs),
        )
        self.warnings.update(ckpt.stats)
        return ckpt

    def _run_pending(
        self, pending: List[str], cache_hits: List[str]
    ) -> None:
        """Run the campaigns no cache could serve (checkpointed if any).

        Scheduler selection, from what the suite can observe: a cache
        directory and ``jobs > 1`` use the run-level pipeline (its
        stages meet in the trace store); no cache directory, ``jobs >
        1`` and more than one pending campaign use the campaign pool;
        everything else runs serially.
        """
        ckpt = self._open_checkpoint()
        if ckpt is None:
            if len(pending) > 1 and self.jobs > 1:
                self._run_pool(pending)
            else:
                for name in pending:
                    _name, result = _run_campaign_task(self._task(name))
                    self._campaigns[name] = result
            return
        try:
            with GracefulShutdown() as shutdown:
                if self.jobs > 1:
                    self._run_pipelined(pending, cache_hits, ckpt,
                                        shutdown)
                else:
                    self._run_serial_checkpointed(pending, ckpt)
            ckpt.finish()
        except InterruptedRunError:
            ckpt.interrupt()
            raise
        finally:
            ckpt.close()

    def _run_pool(self, pending: List[str]) -> None:
        """Supervised campaign-per-task fan-out (no cache directory)."""
        supervisor = Supervisor(
            jobs=min(self.jobs, len(pending)),
            seed=self.config.base_seed,
        )
        finished, report = supervisor.run_stream(
            _run_campaign_task,
            [(name, self._task(name)) for name in pending],
        )
        self.last_report = report
        if report.degraded:
            logger.warning("campaign fan-out: %s", report.summary())
        # Deterministic submission order for memoization -- never the
        # order tasks happened to finish in (retried and serial-fallback
        # results memoize the same as clean pool results).
        for name in pending:
            self._campaigns[name] = finished[name][1]

    def _run_pipelined(
        self,
        pending: List[str],
        cache_hits: List[str],
        ckpt: RunCheckpoint,
        shutdown: Optional[GracefulShutdown],
    ) -> None:
        """Run-level streaming fan-out: one work queue, three stages.

        :func:`~repro.injection.campaign.campaign_run_keys` is the unit
        of scheduling: every campaign decomposes into a sizing task,
        per-run record tasks, and batched analyze tasks
        (:mod:`repro.experiments.pipeline`), all flowing through one
        :meth:`~repro.resilience.supervisor.Supervisor.run_stream`
        queue.  Recording of run N+1 overlaps analysis of run N, and
        the pool load-balances across *runs* rather than campaigns, so
        an imbalanced workload mix no longer idles on its slowest
        campaign.

        Everything stays byte-identical to the serial path: stages meet
        only in the trace store (durable, keyed, atomic), results
        assemble in run-index order, campaign caches are written in
        completion order but with canonicalized content, and the
        journal keeps one workload-level task per campaign plus
        the per-run ``<workload>/run<N>`` tasks of the serial path.
        Each recording has exactly one analyzing consumer, which maps it
        zero-copy off the store's mmap.
        """
        from repro.experiments import pipeline

        store = self.trace_store()
        store_dir = str(self.trace_store_dir)
        n_runs = self.config.runs_per_app
        config = CampaignConfig(
            n_runs=n_runs, base_seed=self.config.base_seed
        )
        switch_probability = config.switch_probability
        detector_names = [
            spec.name for spec in config.detector_suite()
        ]
        batch_runs = pipeline.BATCH_RUNS

        wl_tasks = {}
        for name in pending:
            wl_tasks[name] = ckpt.task(name)
            wl_tasks[name].scheduled()

        #: per-workload streaming state
        states: Dict[str, Dict] = {
            name: {
                "namespace": trace_namespace(name, self.config.params),
                "instances": None,
                "keys": {},            # run_index -> (seed, target)
                "pending_records": set(),
                "buffer": [],          # recorded, awaiting an analyze task
                "batches": 0,
                "results": {},         # run_index -> RunResult
            }
            for name in pending
        }
        run_tasks: Dict[str, object] = {}  # "<wl>/run<N>" -> journal task

        def journal(transition) -> None:
            # Journal transitions are observational here; one that loses
            # the race against a drain request just skips its record
            # (the streaming loop surfaces the drain via should_stop,
            # and stores stay the source of truth on resume).
            try:
                transition()
            except InterruptedRunError:
                pass

        def flush(name: str, submit, force: bool) -> None:
            st = states[name]
            while st["buffer"] and (
                len(st["buffer"]) >= batch_runs or force
            ):
                st["buffer"].sort()
                batch = st["buffer"][:batch_runs]
                del st["buffer"][:batch_runs]
                st["batches"] += 1
                submit(
                    "an:%s#%d" % (name, st["batches"]),
                    pipeline.analyze_payload(
                        name, self.config.params, store_dir,
                        st["namespace"],
                        [(ri,) + st["keys"][ri] for ri in batch],
                        switch_probability, config.check_soundness,
                    ),
                )

        def submit_runs(name: str, instances: int, submit) -> None:
            st = states[name]
            if not instances:
                raise SimulationError(
                    "workload %r has no injectable sync instances"
                    % name
                )
            st["instances"] = instances
            for run_index, seed, target in campaign_run_keys(
                name, config, instances
            ):
                st["keys"][run_index] = (seed, target)
                task_name = "%s/run%d" % (name, run_index)
                run_tasks[task_name] = ckpt.task(task_name)
                journal(run_tasks[task_name].scheduled)
                if store.has_run(
                    st["namespace"], (seed, target, switch_probability)
                ):
                    # Durable from a previous (possibly interrupted)
                    # campaign: straight to the analysis buffer.
                    journal(run_tasks[task_name].recorded)
                    st["buffer"].append(run_index)
                else:
                    st["pending_records"].add(run_index)
                    submit(
                        "rec:" + task_name,
                        pipeline.record_payload(
                            name, self.config.params, store_dir,
                            st["namespace"], run_index, seed, target,
                            switch_probability,
                        ),
                    )
            flush(name, submit, force=not st["pending_records"])

        def finalize(name: str) -> None:
            st = states[name]
            result = CampaignResult(
                workload=name,
                detector_names=list(detector_names),
                sync_instances=st["instances"],
                runs=[st["results"][ri] for ri in range(n_runs)],
            )
            # Streamed commit: campaigns become durable as they finish
            # (run-index order inside, completion order across), so a
            # later drain or failure costs none of this one's work.
            self._campaigns[name] = result
            self._cache_store(name, result)
            wl_tasks[name].committed()

        def on_result(outcome, value, submit) -> None:
            if isinstance(value, dict):
                outcome.timings.update(value.get("timings", {}))
            kind, _, rest = outcome.name.partition(":")
            if kind == "size":
                submit_runs(rest, value["instances"], submit)
            elif kind == "rec":
                name = rest.partition("/")[0]
                st = states[name]
                run_index = value["run_index"]
                journal(run_tasks[rest].recorded)
                st["pending_records"].discard(run_index)
                st["buffer"].append(run_index)
                flush(name, submit, force=not st["pending_records"])
            else:  # "an"
                name = rest.rpartition("#")[0]
                st = states[name]
                for run_index, run in value["results"]:
                    st["results"][run_index] = run
                    run_tasks["%s/run%d" % (name, run_index)].committed()
                if len(st["results"]) == n_runs:
                    finalize(name)

        initial: List[Tuple[str, Dict]] = []
        enqueue = lambda task_name, payload: initial.append(  # noqa: E731
            (task_name, payload)
        )
        for name in pending:
            st = states[name]
            sizing_seed = campaign_sizing_seed(
                name, self.config.base_seed
            )
            instances = store.load_value(
                st["namespace"], ("sync_instances", sizing_seed)
            )
            if instances is not None:
                submit_runs(name, instances, enqueue)
            else:
                enqueue(
                    "size:" + name,
                    pipeline.size_payload(
                        name, self.config.params, store_dir,
                        st["namespace"], sizing_seed,
                    ),
                )

        supervisor = Supervisor(
            jobs=self.jobs, seed=self.config.base_seed
        )
        _results, report = supervisor.run_stream(
            pipeline.run_stage_task,
            initial,
            on_result=on_result,
            should_stop=(
                (lambda: shutdown.requested)
                if shutdown is not None else None
            ),
        )
        self.last_report = self._account_tasks(report, cache_hits)
        if report.degraded:
            logger.warning("run-level fan-out: %s", report.summary())
        if report.interrupted:
            raise InterruptedRunError(ckpt.run_id)

    def _account_tasks(
        self, report: RunReport, cache_hits: List[str]
    ) -> RunReport:
        """Cache-hit accounting for the task-level (pipelined) report.

        The pool outcomes here are stage tasks, not workloads:
        cache-served campaigns are prepended as zero-attempt ``"ok"``
        rows with ``path="cache"`` (canonical workload order) ahead of
        the stage rows, so every workload of the call is
        visible in the report whether it was computed or replayed.
        """
        if not cache_hits:
            return report
        merged = RunReport(
            pool_poisoned=report.pool_poisoned,
            interrupted=report.interrupted,
        )
        merged.outcomes = [
            TaskOutcome(name, status="ok", attempts=0, path="cache")
            for name in self.config.workload_names()
            if name in cache_hits
        ] + report.outcomes
        return merged

    def _run_serial_checkpointed(
        self, pending: List[str], ckpt: RunCheckpoint
    ) -> None:
        """In-process campaigns with full per-run/per-config journaling."""
        store = self.trace_store()
        for name in pending:
            task = ckpt.task(name)
            task.scheduled()
            if task.was_committed:
                cached = self._cache_load(name)
                if cached is not None:
                    self._campaigns[name] = cached
                    continue
            spec = get_workload(name)
            result = run_campaign(
                spec.program_factory(self.config.params),
                name,
                CampaignConfig(
                    n_runs=self.config.runs_per_app,
                    base_seed=self.config.base_seed,
                ),
                trace_store=store,
                trace_namespace=trace_namespace(name, self.config.params),
                checkpoint=ckpt,
            )
            self._campaigns[name] = result
            self._cache_store(name, result)
            task.committed()

    # -- cross-app aggregates --------------------------------------------------

    def average_problem_rate(self, detector: str, baseline: str) -> float:
        """Problem-detection rate pooled over all manifested runs."""
        detected = 0
        base = 0
        for campaign in self.campaigns().values():
            detected += campaign.problems_detected(detector)
            base += campaign.problems_detected(baseline)
        return detected / base if base else 0.0

    def average_raw_rate(self, detector: str, baseline: str) -> float:
        """Raw race-detection rate pooled over all runs."""
        detected = 0
        base = 0
        for campaign in self.campaigns().values():
            detected += campaign.races_detected(detector)
            base += campaign.races_detected(baseline)
        return detected / base if base else 0.0
