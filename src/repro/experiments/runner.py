"""The shared experiment suite: campaigns once, figures many.

A :class:`Suite` lazily runs one injection campaign per workload (with the
full detector suite) and caches the :class:`CampaignResult`; Figures 10 and
12-17 are all views over the same campaign data, exactly as the paper's
per-configuration columns are views over its injection runs.

Campaigns are embarrassingly parallel -- every (workload, run) pair is
an independent deterministic computation -- so :meth:`Suite.campaigns`
fans missing campaigns out over supervised worker processes (``jobs``
argument, or the ``REPRO_JOBS`` environment variable).  Results are
bit-identical regardless of ``jobs``: each campaign derives its seeds
from ``(base_seed, workload)`` alone, and the fan-out only changes
*where* a run is recorded or analyzed, never what it computes.  Every
campaign runs on the run-level pipeline: its stage tasks meet in a
trace store and are scheduled by
:func:`repro.experiments.pipeline.drive`, the driver the sweep and the
campaign service run too.  Without a cache directory that store is a
temporary directory, deleted when the campaigns are done.

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
:attr:`Suite.warnings`.  The journal holds one task per workload and
one per injected run (:func:`repro.experiments.pipeline.journal_hooks`).
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.env import env_number
from repro.common.errors import InterruptedRunError, StoreCorruptError
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    trace_namespace,  # re-exported: Suite callers key stores with it
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
from repro.workloads.registry import all_workloads

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


class Suite:
    """Runs and caches the per-workload injection campaigns.

    Args:
        config: suite configuration.
        jobs: stage-task worker processes; ``None`` reads
            ``REPRO_JOBS`` (default 1 = in-process, no pool spawned).
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

    def campaign(self, workload: str) -> CampaignResult:
        """The (cached) campaign for one application.

        A cache miss runs through the same scheduler as
        :meth:`campaigns` -- with a cache directory journaled,
        drain-able, and accounted in :attr:`last_report` -- so a
        single-workload script gets the identical crash-consistency
        story (and, with ``jobs > 1``, the run-level pipeline's
        intra-campaign parallelism).  Without a cache directory the
        campaign runs unjournaled, over a temporary trace store.
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
        results come back -- and land in the on-disk cache -- the same
        regardless of completion order, retries, or fallbacks, in
        canonical workload order, so two identical runs leave identical
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
        """Run the campaigns no cache could serve, on the run-level
        pipeline.

        With a cache directory the run is journaled and drains on
        SIGTERM; without one the stages meet in a temporary trace store,
        deleted on return and on any exception.
        """
        ckpt = self._open_checkpoint()
        if ckpt is None:
            self._run_pipelined(pending, cache_hits)
            return
        try:
            with GracefulShutdown() as shutdown:
                self._run_pipelined(
                    pending, cache_hits, ckpt, lambda: shutdown.requested
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
        cache_hits: List[str],
        ckpt: Optional[RunCheckpoint] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run-level streaming fan-out: one work queue, three stages.

        :func:`repro.experiments.pipeline.run_campaigns` schedules the
        sizing, record and analyze tasks of every pending campaign, so
        recording overlaps analysis and the pool load-balances across
        *runs* rather than campaigns.  At ``jobs == 1`` the tasks run
        in this process; otherwise they share one
        :meth:`~repro.resilience.supervisor.Supervisor.run_stream`
        queue, whose report lands in :attr:`last_report`.
        """
        from repro.experiments import pipeline

        config = CampaignConfig(
            n_runs=self.config.runs_per_app, base_seed=self.config.base_seed
        )
        supervisor = Supervisor(jobs=self.jobs, seed=self.config.base_seed)

        def run_stream(tasks, on_result) -> bool:
            def fold_timings(outcome, value, submit) -> None:
                outcome.timings.update(value.get("timings", {}))
                on_result(outcome.name, value, submit)

            _results, report = supervisor.run_stream(
                pipeline.run_stage_task, tasks,
                on_result=fold_timings,
                should_stop=should_stop,
            )
            self.last_report = self._account_tasks(report, cache_hits)
            if report.degraded:
                logger.warning("run-level fan-out: %s", report.summary())
            return report.interrupted

        pipeline.run_campaigns(
            [
                pipeline.Campaign(name, self.config.params, config)
                for name in pending
            ],
            self.trace_store(),
            self._commit,
            ckpt,
            run_stream if self.jobs > 1 else None,
            should_stop,
        )

    def _commit(self, name: str, result: CampaignResult) -> None:
        """Keep a finished campaign and write its cache entry, if any
        (canonicalized, so completion order changes no byte)."""
        self._campaigns[name] = result
        self._cache_store(name, result)

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
