"""The shared experiment suite: campaigns once, figures many.

A :class:`Suite` lazily runs one injection campaign per workload (with the
full detector suite) and caches the :class:`CampaignResult`; Figures 10 and
12-17 are all views over the same campaign data, exactly as the paper's
per-configuration columns are views over its injection runs.

Campaigns are embarrassingly parallel -- every (workload, run) pair is
an independent deterministic computation -- so :meth:`Suite.campaigns`
fans missing campaigns out over a pool of worker processes (``jobs``
argument, or the ``REPRO_JOBS`` environment variable).  Results are
bit-identical regardless of ``jobs``: each campaign derives its seeds
from ``(base_seed, workload)`` alone, and the fan-out only changes
*where* a run is recorded or analyzed, never what it computes.  Every
campaign runs on the run-level pipeline: its stage tasks meet in a
trace store and are scheduled by
:func:`repro.experiments.pipeline.drive`, the driver the sweep and the
campaign service run too.  Without a cache directory that store is a
temporary directory, deleted when the campaigns are done.

An optional cache directory (``cache_dir`` argument, or
``REPRO_CACHE_DIR``) holds the suite's trace store, ``<cache>/traces``,
where the stages meet and each finished campaign is committed under its
:attr:`~repro.experiments.pipeline.Campaign.key` -- the entry a service
job commits for the same campaign -- so a re-run skips straight to the
views.

Resilience: the fan-out runs on :mod:`repro.resilience.procpool` --
per-task deadlines (``REPRO_TASK_TIMEOUT``), retries with backoff
(``REPRO_MAX_RETRIES``), and an in-process fallback -- and a damaged
committed campaign is quarantined (counted in ``Suite.store.stats``)
and rebuilt from the durable stage outputs, bit-identically; see
``docs/resilience.md``.

Crash consistency: with a cache directory the suite is *checkpointed*
(:mod:`repro.resilience.journal`): every campaign's lifecycle is logged
to a per-run write-ahead journal under ``<cache>/journal/``, all store
writes are atomic (tmp -> fsync -> rename), SIGTERM/SIGINT drain the
fan-out and raise :class:`~repro.common.errors.InterruptedRunError`
(exit code 71 at the CLI -- "interrupted, resumable"), and a re-run over
the same cache directory resumes to bit-identical results.  Startup
garbage-collects the litter a killed process leaves behind (orphaned
``*.tmp.*`` files, stale journals, oversized quarantines), counted in
:attr:`Suite.warnings`.  The journal holds one task per workload and
one per injected run (:func:`repro.experiments.pipeline.journal_hooks`).
"""

from __future__ import annotations

import logging
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.env import env_number
from repro.common.errors import InterruptedRunError
from repro.experiments import pipeline
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    trace_namespace,  # re-exported: Suite callers key stores with it
)
from repro.resilience.checkpoint import GracefulShutdown
from repro.resilience.journal import RunCheckpoint
from repro.trace.store import PackedTraceStore
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import all_workloads

logger = logging.getLogger("repro.experiments.runner")


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
            20-100 per app; the default here keeps the full 17-app suite
            in benchmark-friendly time while preserving the aggregate
            shapes (averages over all apps rest on 100+ runs).
        base_seed: master seed.
        workloads: subset of application names (default: all 17, the
            12 Splash-2 apps and the 5 server workloads).
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


class Suite:
    """Runs and caches the per-workload injection campaigns.

    Args:
        config: suite configuration.
        jobs: stage-task worker processes; ``None`` reads
            ``REPRO_JOBS`` (default 1 = in-process, no pool spawned).
        cache_dir: directory for the trace store and the journal;
            ``None`` reads ``REPRO_CACHE_DIR`` (default: no on-disk
            cache).
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
        #: The trace store under ``<cache>/traces``, or None without a
        #: cache dir.  Its ``stats`` count every committed-campaign
        #: lookup's misses, quarantines and stale entries.
        self.store: Optional[PackedTraceStore] = (
            PackedTraceStore(self.cache_dir / "traces")
            if self.cache_dir is not None else None
        )
        self._campaigns: Dict[str, CampaignResult] = {}
        #: Startup housekeeping counts of the checkpoint
        #: (``tmp_pruned``, ``journals_pruned``, ``quarantine_pruned``,
        #: ``resumed``).
        self.warnings: Counter = Counter()
        #: ``(task name, stage seconds)`` of every stage task the most
        #: recent run of missing campaigns ran, in completion order;
        #: ``task_s`` is the whole task as its stream thread saw it.
        self.task_timings: List[Tuple[str, Dict[str, float]]] = []
        #: That run's pool counters (``pooled``, ``inline``,
        #: ``replaced``, ``timeouts``); None when it ran in-process.
        self.pool_counts: Optional[Dict[str, int]] = None

    def _campaign_of(self, workload: str) -> pipeline.Campaign:
        return pipeline.Campaign(
            workload, self.config.params,
            CampaignConfig(
                n_runs=self.config.runs_per_app,
                base_seed=self.config.base_seed,
            ),
        )

    # -- campaign execution --------------------------------------------------

    def campaign(self, workload: str) -> CampaignResult:
        """The (cached) campaign for one application.

        A miss runs through the same scheduler as :meth:`campaigns` --
        with a cache directory journaled, drain-able, and timed in
        :attr:`task_timings` -- so a single-workload script gets the
        identical crash-consistency story (and, with ``jobs > 1``, the
        run-level pipeline's intra-campaign parallelism).  Without a
        cache directory the campaign runs unjournaled, over a temporary
        trace store.
        """
        if workload not in self._campaigns:
            self._load_or_run([workload])
        return self._campaigns[workload]

    def campaigns(self) -> Dict[str, CampaignResult]:
        """All campaigns (running any that have not run yet).

        Missing campaigns run on a process pool when ``jobs > 1``:
        each task gets a deadline, dead or hung processes are replaced
        and the task retried with backoff, and a task out of retries (or
        a poisoned pool) runs in-process (:attr:`pool_counts` counts
        each).  Committed campaigns never occupy a process, and
        results come back -- and are committed to the store -- the same
        regardless of completion order, retries, or fallbacks, in
        canonical workload order, so two identical runs leave identical
        state behind.

        With a cache directory the run is *checkpointed*: campaign
        lifecycles are journaled, SIGTERM/SIGINT (or the chaos
        ``sigterm_drain`` fault) drain the workers, commit every
        finished campaign, flush the journal, and raise
        :class:`InterruptedRunError` -- after which re-running over the
        same cache directory resumes and produces bit-identical stores
        and reports.
        """
        self._load_or_run([
            name
            for name in self.config.workload_names()
            if name not in self._campaigns
        ])
        # Canonical workload order, independent of which campaigns were
        # committed before: figure tables iterate this dict, and their
        # row order must not depend on cache state.
        ordered = {
            name: self._campaigns[name]
            for name in self.config.workload_names()
            if name in self._campaigns
        }
        for name, result in self._campaigns.items():
            if name not in ordered:
                ordered[name] = result
        return ordered

    def _load_or_run(self, names: List[str]) -> None:
        """Serve each campaign from its committed entry, if any, and run
        the rest."""
        for name in names if self.store is not None else []:
            committed = pipeline.load_committed(
                self.store, self._campaign_of(name)
            )
            if committed is not None:
                self._campaigns[name] = committed
        pending = [name for name in names if name not in self._campaigns]
        if pending:
            self._run_pending(pending)

    # -- checkpointed execution ------------------------------------------------

    def _identity(self) -> tuple:
        """Everything that pins this suite's results (journal identity)."""
        return (
            "suite",
            self.config.runs_per_app,
            self.config.base_seed,
            tuple(self.config.workload_names()),
            repr(self.config.params),
        )

    def _open_checkpoint(self) -> Optional[RunCheckpoint]:
        """The suite's run checkpoint, or None without a cache dir.

        Opening also performs the startup housekeeping -- orphaned
        ``*.tmp.*`` collection, stale-journal pruning, and quarantine
        GC of the trace store -- whose counts land in :attr:`warnings`
        (``tmp_pruned``, ``journals_pruned``, ``quarantine_pruned``,
        ``resumed``).
        """
        if self.store is None:
            return None
        ckpt = RunCheckpoint.open(
            self.cache_dir,
            identity=self._identity(),
            kind="suite",
            quarantine_dirs=(self.store.quarantine_dir,),
        )
        self.warnings.update(ckpt.stats)
        return ckpt

    def _run_pending(self, pending: List[str]) -> None:
        """Run the campaigns no committed entry could serve, on the
        run-level pipeline.

        With a cache directory the run is journaled and drains on
        SIGTERM; without one the stages meet in a temporary trace store,
        deleted on return and on any exception.
        """
        ckpt = self._open_checkpoint()
        if ckpt is None:
            self._run_pipelined(pending)
            return
        try:
            with GracefulShutdown() as shutdown:
                self._run_pipelined(
                    pending, ckpt, lambda: shutdown.requested
                )
            ckpt.finish()
        except InterruptedRunError:
            ckpt.interrupt()
            raise
        finally:
            ckpt.close()

    def _run_pipelined(
        self,
        pending: List[str],
        ckpt: Optional[RunCheckpoint] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run-level streaming fan-out: one work queue, three stages.

        :func:`repro.experiments.pipeline.run_campaigns` schedules the
        sizing, record and analyze tasks of every pending campaign, so
        recording overlaps analysis and the pool load-balances across
        *runs* rather than campaigns.  At ``jobs == 1`` the tasks run in
        this process; otherwise ``jobs`` stream threads each hand their
        task to :meth:`~repro.resilience.procpool.ProcessPool.run` on a
        pool of ``jobs`` processes, started for this call.  Every task's
        stage timings land in :attr:`task_timings`, and the pool's
        counters in :attr:`pool_counts`.
        """
        self.task_timings, self.pool_counts = [], None
        pool = None
        if self.jobs > 1:
            # Imported here, so an in-process run loads no pool code.
            from repro.resilience.procpool import ProcessPool

            pool = ProcessPool(
                pipeline.run_stage_task, self.jobs,
                seed=self.config.base_seed,
            )
            try:
                pool.start()
            except OSError as exc:
                logger.error("stage pool did not start (%s); tasks run "
                             "in-process", exc)

        def run_task(payload: Dict, name: str) -> Dict:
            started = time.monotonic()
            if pool is None:
                value = pipeline.run_stage_task(payload)
            else:
                value = pool.run(payload, name)
            self.task_timings.append((name, dict(
                value["timings"], task_s=time.monotonic() - started,
            )))
            return value

        try:
            pipeline.run_campaigns(
                [self._campaign_of(name) for name in pending],
                self.store,
                self._commit,
                ckpt,
                pipeline.inline_stream(run_task, should_stop, self.jobs),
            )
        finally:
            if pool is not None:
                health = pool.health()
                self.pool_counts = {key: health[key] for key in (
                    "pooled", "inline", "replaced", "timeouts",
                )}
                pool.shutdown()

    def _commit(self, name: str, result: CampaignResult) -> None:
        """Keep a finished campaign and commit it to the store, if any
        (canonicalized, so completion order changes no byte)."""
        self._campaigns[name] = result
        if self.store is not None:
            pipeline.store_committed(
                self.store, self._campaign_of(name), result
            )

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
