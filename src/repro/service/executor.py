"""Execute one accepted campaign job against the shared trace store.

The executor is the bridge between a :class:`~repro.service.jobs.Job`
and the existing record-once / analyze-many machinery.  It hands the
spec's campaign to the one stage-DAG driver,
:func:`repro.experiments.pipeline.drive` -- the same driver the
pipelined ``Suite`` runs, so sizing, sharding, batching and run
assembly happen exactly as they do on the CLI -- and commits the
finished :class:`~repro.injection.campaign.CampaignResult` to the store
through :func:`~repro.experiments.pipeline.store_committed`, the entry
the CLI's Suite commits for the same campaign.  What stays here is the
job's durability: the hooks log the WAL phases (``sharded``,
``recording``, ``analyzing``), fire the ``store_corrupt_mid_job`` chaos
fault and stream ``on_run``.

The stage runner is a callable, ``run_stage(payload, name) -> value``:
the signature of :meth:`~repro.resilience.procpool.ProcessPool.run`,
which the server passes -- one blocking submit to its pre-forked stage
processes, one per job slot, so concurrent jobs run their CPU-bound
stages in parallel instead of sharing the server's GIL.  The pool kills
a stage task at its deadline, replaces a process that died, and retries
the task (logged and backed off under its name) before it falls back
in-process.  Direct callers get the in-process runner by default.  A
job with no live remote worker runs its tasks one at a time through
``run_stage`` (:func:`~repro.experiments.pipeline.inline_stream`); with
live workers the stage tasks go out over leases instead, and
``run_stage`` only serves the pool's zero-worker fallback.

Everything is store-keyed and idempotent, which is the whole recovery
story: a job re-executed after a server crash skips every durable
recording (``has_run``), reuses every durable outcome bundle, and -- if
it got as far as committing -- serves the committed campaign without
touching a single trace.  Byte-identity with the serial CLI path
follows because both feed the identical
``(seed, target, switch_probability)`` schedule through the identical
analysis ladder and render through the shared
:func:`~repro.injection.campaign.format_campaign_report`.

Cooperative interruption: the ``stop`` callable is polled between stage
tasks (and passed to the worker pool as its drain predicate); when it
trips, :class:`JobInterrupted` propagates and the caller decides what
the stop *meant* (drain: leave the job resumable; cancel/deadline:
terminal).  The ``store_corrupt_mid_job`` chaos fault truncates one
durable trace entry as analysis starts, proving the self-healing store
(quarantine + deterministic re-record) holds inside a service job too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import pipeline
from repro.injection.campaign import (
    CampaignResult,
    RunResult,
    format_campaign_report,
)
from repro.resilience import faults
from repro.trace.store import PackedTraceStore


class JobInterrupted(Exception):
    """The job's stop predicate tripped at a safe point (resumable)."""


def run_summary(run: RunResult) -> Dict:
    """The per-run event streamed to ``result`` clients (JSON-safe)."""
    return {
        "run_index": run.run_index,
        "manifested": run.manifested,
        "n_events": run.n_events,
        "flagged": dict(run.flagged),
    }


def _noop(*_args, **_kwargs) -> None:
    return None


def _run_inline(payload: Dict, _name: str) -> Dict:
    return pipeline.run_stage_task(payload)


def execute_job(
    spec,
    root,
    stop: Optional[Callable[[], bool]] = None,
    run_stage: Callable[[Dict, str], Dict] = _run_inline,
    on_phase: Callable[..., None] = _noop,
    on_run: Callable[[RunResult], None] = _noop,
    pool=None,
    job_id: str = "",
) -> Dict:
    """Run ``spec``'s campaign to a committed campaign entry.

    ``on_phase(name, **info)`` fires at each lifecycle transition the
    caller should journal (``sharded`` -- with the run-key shard plan
    and per-run durability -- then ``recording``, and ``analyzing`` as
    the first analysis batch is submitted); ``on_run(run)`` fires per
    completed run, in run-index order.  Both are invoked on the
    executing thread; callers own thread safety.

    ``run_stage(payload, name)`` runs one local stage task (``name`` is
    its ``size:``/``rec:``/``an:`` task name) and blocks until it is
    done; the default runs it in-process.  A value's ``"store"``
    counters (those of the store the stage opened) are added into
    ``stats["store"]``.

    ``pool`` (a :class:`~repro.service.workers.pool.WorkerPool`) routes
    the stage tasks to remote workers when any are live at job start;
    with zero workers attached every task goes to ``run_stage``, and
    workers dying mid-job fall back to ``run_stage`` inside the pool --
    either way the result bytes are identical.

    Returns ``{"report", "campaign", "stats"}``.  Raises
    :class:`JobInterrupted` if ``stop`` tripped, or a
    :class:`~repro.common.errors.CordError` subtype on real failure.
    """
    stop = stop or (lambda: False)
    root = Path(root)
    store = PackedTraceStore(root / "traces")
    campaign = spec.campaign()
    config = campaign.config
    use_remote = pool is not None and pool.live_worker_count() > 0

    committed = pipeline.load_committed(store, campaign)
    if committed is not None:
        # A bit-identical campaign already committed (this tenant's
        # earlier job, another tenant's, a CLI run over this store, or
        # this job before the server was killed): serve it -- zero
        # simulation, zero analysis.
        keys = [
            (run.run_index, run.seed, run.target_index)
            for run in committed.runs
        ]
        on_phase(
            "sharded",
            instances=committed.sync_instances,
            keys=keys,
            durable=dict.fromkeys((k[0] for k in keys), True),
            switch_probability=config.switch_probability,
        )
        on_phase("recording")
        on_phase("analyzing")
        for run in committed.runs:
            _check_stop(stop)
            on_run(run)
        return _outcome(committed, {
            "result_hit": 1, "simulated": 0,
            "replayed": len(committed.runs), "store": store.snapshot(),
        })

    _check_stop(stop)
    remote_stats: Dict[str, int] = {}
    stage_store_stats: Dict[str, int] = {}

    def run_local(payload: Dict, name: str) -> Dict:
        value = run_stage(payload, name)
        _merge_stats(stage_store_stats, value.get("store", {}))
        return value

    def run_remote(tasks, on_result) -> bool:
        _values, stats, interrupted = pool.run_tasks(
            job_id or spec.digest(), tasks, run_local,
            on_result=on_result, should_stop=stop,
        )
        _merge_stats(remote_stats, stats)
        return interrupted

    keys: List[Tuple[int, int, int]] = []
    missing: List[int] = []
    done: Dict[str, CampaignResult] = {}

    def on_sharded(_workload, instances, shard_keys, durable) -> None:
        keys.extend(shard_keys)
        missing.extend(index for index, hit in durable.items() if not hit)
        on_phase(
            "sharded",
            instances=instances,
            keys=shard_keys,
            durable=durable,
            switch_probability=config.switch_probability,
        )
        on_phase("recording")

    def on_analyzing(_workload) -> None:
        _chaos_corrupt(store, campaign.namespace, keys,
                       config.switch_probability)
        on_phase("analyzing")

    interrupted = pipeline.drive(
        [campaign],
        store,
        run_remote if use_remote else pipeline.inline_stream(run_local, stop),
        on_sharded=on_sharded,
        on_analyzing=on_analyzing,
        on_run=lambda _workload, run: on_run(run),
        on_campaign=done.__setitem__,
    )
    if interrupted:
        raise JobInterrupted("job stop requested")
    result = done[spec.workload]
    pipeline.store_committed(store, campaign, result)
    _merge_stats(stage_store_stats, store.snapshot())
    stats_out = {
        "result_hit": 0,
        "simulated": len(missing),
        "replayed": len(keys) - len(missing),
        "store": dict(sorted(stage_store_stats.items())),
    }
    if use_remote:
        stats_out["remote"] = remote_stats
    return _outcome(result, stats_out)


def _outcome(campaign: CampaignResult, stats: Dict) -> Dict:
    return {
        "report": format_campaign_report(campaign),
        "campaign": campaign,
        "stats": stats,
    }


def _check_stop(stop: Callable[[], bool]) -> None:
    if stop():
        raise JobInterrupted("job stop requested")


def _merge_stats(into: Dict[str, int], stats: Dict[str, int]) -> None:
    for key, value in stats.items():
        if isinstance(value, int) and not isinstance(value, bool):
            into[key] = into.get(key, 0) + value


def _chaos_corrupt(
    store: PackedTraceStore,
    namespace: str,
    keys: List[Tuple[int, int, int]],
    switch_probability: float,
) -> None:
    """The ``store_corrupt_mid_job`` fault: tear one durable recording.

    Fires as the first analysis batch is submitted, truncating the
    first durable run's entry to half its frame.  The analyze stage must
    then detect the damage, quarantine the entry, deterministically
    re-record, and still produce the byte-identical report -- the
    store's self-healing contract, exercised through a live service job.
    """
    if not (faults.active() and faults.fire("store_corrupt_mid_job")):
        return
    for _run_index, seed, target in keys:
        path = store.entry_path(
            "trace", namespace, (seed, target, switch_probability)
        )
        if path.exists():
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
            return
