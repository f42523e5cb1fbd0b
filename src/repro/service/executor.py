"""Execute one accepted campaign job against the shared trace store.

The executor is the bridge between a :class:`~repro.service.jobs.Job`
and the existing record-once / analyze-many machinery: it shards the
spec into the same run-level stage payloads the pipelined ``Suite``
scheduler uses (:mod:`repro.experiments.pipeline`), runs them either
inline (``workers <= 1``, the default -- jobs parallelize across the
server's thread pool instead) or through a
:meth:`~repro.resilience.supervisor.Supervisor.run_stream` worker pool,
assembles the :class:`~repro.injection.campaign.CampaignResult`, and
persists the finished result document into the store keyed by the
spec's content digest.

Everything is store-keyed and idempotent, which is the whole recovery
story: a job re-executed after a server crash skips every durable
recording (``has_run``), reuses every durable outcome bundle, and -- if
it got as far as committing -- serves the durable result document
without touching a single trace.  Byte-identity with the serial CLI
path follows because both feed the identical
``(seed, target, switch_probability)`` schedule through the identical
analysis ladder and render through the shared
:func:`~repro.injection.campaign.format_campaign_report`.

Cooperative interruption: the ``stop`` callable is polled between stage
tasks (and passed to the worker pool as its drain predicate); when it
trips, :class:`JobInterrupted` propagates and the caller decides what
the stop *meant* (drain: leave the job resumable; cancel/deadline:
terminal).  The ``store_corrupt_mid_job`` chaos fault truncates one
durable trace entry between the record and analyze phases, proving the
self-healing store (quarantine + deterministic re-record) holds inside
a service job too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.experiments import pipeline
from repro.injection.campaign import (
    CampaignResult,
    RunResult,
    campaign_run_keys,
    campaign_sizing_seed,
    format_campaign_report,
)
from repro.resilience import faults
from repro.resilience.supervisor import Supervisor
from repro.trace.store import PackedTraceStore
from repro.workloads.registry import get_workload

#: Store namespace of service-level artifacts (committed result docs).
SERVICE_NAMESPACE = "service"

#: Result-document layout version.
RESULT_SCHEMA = 1


class JobInterrupted(Exception):
    """The job's stop predicate tripped at a safe point (resumable)."""


def result_key(spec) -> Tuple[str, str]:
    """Store key of a spec's committed result document."""
    return ("svc_result", spec.digest())


def load_result(store: PackedTraceStore, spec) -> Optional[Dict]:
    """The durable result document for ``spec``, or ``None``."""
    doc = store.load_value(SERVICE_NAMESPACE, result_key(spec))
    if (
        isinstance(doc, dict)
        and doc.get("schema") == RESULT_SCHEMA
        and isinstance(doc.get("report"), str)
        and isinstance(doc.get("campaign"), CampaignResult)
    ):
        return doc
    return None


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


def execute_job(
    spec,
    root,
    stop: Optional[Callable[[], bool]] = None,
    workers: int = 1,
    on_phase: Callable[..., None] = _noop,
    on_run: Callable[[RunResult], None] = _noop,
    pool=None,
    job_id: str = "",
) -> Dict:
    """Run ``spec``'s campaign to a committed result document.

    ``on_phase(name, **info)`` fires at each lifecycle transition the
    caller should journal (``sharded`` -- with the run-key shard plan
    and per-run durability -- then ``recording`` and ``analyzing``);
    ``on_run(run)`` fires per completed run, in run-index order.  Both
    are invoked on the executing thread; callers own thread safety.

    ``pool`` (a :class:`~repro.service.workers.pool.WorkerPool`) routes
    the stage tasks to remote workers when any are live at job start;
    with zero workers attached the job runs exactly the single-host
    path, and workers dying mid-job fall back to local execution inside
    the pool -- either way the result bytes are identical.

    Returns ``{"report", "campaign", "stats"}``.  Raises
    :class:`JobInterrupted` if ``stop`` tripped, or a
    :class:`~repro.common.errors.CordError` subtype on real failure.
    """
    stop = stop or (lambda: False)
    root = Path(root)
    store = PackedTraceStore(root / "traces")
    namespace = spec.trace_namespace()
    config = spec.campaign_config()
    use_remote = pool is not None and pool.live_worker_count() > 0

    cached = load_result(store, spec)
    if cached is not None:
        # A bit-identical campaign already committed (this tenant's
        # earlier job, another tenant's, or this job before the server
        # was killed): serve the durable document -- zero simulation,
        # zero analysis.
        campaign = cached["campaign"]
        keys = [
            (run.run_index, run.seed, run.target_index)
            for run in campaign.runs
        ]
        on_phase(
            "sharded",
            instances=campaign.sync_instances,
            keys=keys,
            durable=dict.fromkeys((k[0] for k in keys), True),
            switch_probability=config.switch_probability,
        )
        on_phase("recording")
        on_phase("analyzing")
        for run in campaign.runs:
            _check_stop(stop)
            on_run(run)
        return {
            "report": cached["report"],
            "campaign": campaign,
            "stats": {
                "result_hit": 1,
                "simulated": 0,
                "replayed": len(campaign.runs),
                "store": store.snapshot(),
            },
        }

    factory = get_workload(spec.workload).program_factory(
        spec.workload_params()
    )
    store_dir = str(store.root)
    remote_stats: Dict[str, int] = {}

    def run_local(payload: Dict) -> Dict:
        return pipeline.run_stage_task(payload, store=store,
                                       factory=factory)

    # -- shard: sizing run, then the deterministic run-key schedule ----
    _check_stop(stop)
    size_task = pipeline.size_payload(
        spec.workload, spec.workload_params(), store_dir, namespace,
        campaign_sizing_seed(spec.workload, config.base_seed),
    )
    if use_remote:
        values, stats, interrupted = pool.run_tasks(
            job_id or spec.digest(), [("size", size_task)], run_local,
            should_stop=stop,
        )
        _merge_stats(remote_stats, stats)
        if interrupted:
            raise JobInterrupted("job stop requested (pool drained)")
        sizing = values["size"]
    else:
        sizing = run_local(size_task)
    instances = sizing["instances"]
    if instances == 0:
        raise SimulationError(
            "workload %r has no injectable sync instances" % spec.workload
        )
    keys = campaign_run_keys(spec.workload, config, instances)
    durable = {
        run_index: store.has_run(
            namespace, (seed, target, config.switch_probability)
        )
        for run_index, seed, target in keys
    }
    on_phase(
        "sharded",
        instances=instances,
        keys=keys,
        durable=durable,
        switch_probability=config.switch_probability,
    )

    missing = [key for key in keys if not durable[key[0]]]
    results: Dict[int, RunResult] = {}
    emitted = [0]

    def emit_ready() -> None:
        # Stream runs in run-index order regardless of analysis order.
        while emitted[0] in results:
            on_run(results[emitted[0]])
            emitted[0] += 1

    def record_task(key: Tuple[int, int, int]) -> Dict:
        run_index, seed, target = key
        return pipeline.record_payload(
            spec.workload, spec.workload_params(), store_dir, namespace,
            run_index, seed, target, config.switch_probability,
        )

    def analyze_task(batch: List[Tuple[int, int, int]]) -> Dict:
        return pipeline.analyze_payload(
            spec.workload, spec.workload_params(), store_dir, namespace,
            batch, config.switch_probability, config.check_soundness,
        )

    batch_runs = pipeline.BATCH_RUNS
    batches = [
        keys[start: start + batch_runs]
        for start in range(0, len(keys), batch_runs)
    ]

    def run_remote(tasks, on_result) -> bool:
        _values, stats, interrupted = pool.run_tasks(
            job_id or spec.digest(), tasks, run_local,
            on_result=on_result, should_stop=stop,
        )
        _merge_stats(remote_stats, stats)
        return interrupted

    def run_pooled(tasks, on_result) -> bool:
        _values, report = Supervisor(jobs=workers).run_stream(
            pipeline.run_stage_task, tasks,
            on_result=lambda outcome, value, submit: on_result(
                outcome.name, value, submit
            ),
            should_stop=stop,
        )
        return report.interrupted

    if use_remote or workers > 1:
        _execute_streamed(
            run_remote if use_remote else run_pooled,
            store, missing, batches, record_task, analyze_task, on_phase,
            results, emit_ready, namespace, config.switch_probability,
        )
    else:
        _execute_inline(
            stop, store, factory, missing, batches,
            record_task, analyze_task, on_phase, results, emit_ready,
            namespace, config.switch_probability,
        )

    campaign = CampaignResult(
        workload=spec.workload,
        detector_names=[s.name for s in config.detector_suite()],
        sync_instances=instances,
    )
    campaign.runs = [results[run_index] for run_index, _s, _t in keys]
    report = format_campaign_report(campaign)
    store.store_value(
        SERVICE_NAMESPACE, result_key(spec),
        {"schema": RESULT_SCHEMA, "report": report, "campaign": campaign},
    )
    stats_out = {
        "result_hit": 0,
        "simulated": len(missing),
        "replayed": len(keys) - len(missing),
        "store": store.snapshot(),
    }
    if use_remote:
        stats_out["remote"] = remote_stats
    return {
        "report": report,
        "campaign": campaign,
        "stats": stats_out,
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
    batches: List[List[Tuple[int, int, int]]],
    switch_probability: float,
) -> None:
    """The ``store_corrupt_mid_job`` fault: tear one durable recording.

    Fires between the record and analyze phases, truncating the first
    run's entry to half its frame.  The analyze stage must then detect
    the damage, quarantine the entry, deterministically re-record, and
    still produce the byte-identical report -- the store's self-healing
    contract, exercised through a live service job.
    """
    if not (faults.active() and faults.fire("store_corrupt_mid_job")):
        return
    for batch in batches:
        for _run_index, seed, target in batch:
            path = store.run_entry_path(
                namespace, (seed, target, switch_probability)
            )
            if path.exists():
                data = path.read_bytes()
                path.write_bytes(data[: max(1, len(data) // 2)])
                return


def _execute_inline(
    stop, store, factory, missing, batches,
    record_task, analyze_task, on_phase, results, emit_ready,
    namespace, switch_probability,
) -> None:
    """Serial stage execution with a stop check between stage tasks."""
    on_phase("recording")
    for key in missing:
        _check_stop(stop)
        pipeline.run_stage_task(record_task(key), store=store,
                                factory=factory)
    _check_stop(stop)
    _chaos_corrupt(store, namespace, batches, switch_probability)
    on_phase("analyzing")
    for batch in batches:
        _check_stop(stop)
        value = pipeline.run_stage_task(analyze_task(batch), store=store,
                                        factory=factory)
        for run_index, run in value["results"]:
            results[run_index] = run
        emit_ready()


def _execute_streamed(
    run_stream, store, missing, batches,
    record_task, analyze_task, on_phase, results, emit_ready,
    namespace, switch_probability,
) -> None:
    """Stream the stage tasks through a worker pool.

    Same shape as ``Suite._run_pipelined`` scoped to one campaign: all
    record tasks enter the pool up front, and each analysis batch is
    submitted the moment its last member run is durable, so recording
    overlaps analysis.  ``run_stream(tasks, on_result)`` executes the
    tasks -- on a local :class:`~repro.resilience.supervisor.Supervisor`
    or on the multi-host worker pool, each with its own retry and
    fallback ladder underneath -- calling ``on_result(name, value,
    submit)`` per completion, and returns whether it was interrupted.
    """
    on_phase("recording")
    batch_of: Dict[int, int] = {}
    pending = []
    for index, batch in enumerate(batches):
        for run_index, _seed, _target in batch:
            batch_of[run_index] = index
        pending.append(
            sum(1 for key in batch if key in missing)
        )
    analyzing = [False]

    def start_analyzing() -> None:
        if not analyzing[0]:
            analyzing[0] = True
            _chaos_corrupt(store, namespace, batches, switch_probability)
            on_phase("analyzing")

    tasks = [
        ("record/%d" % key[0], record_task(key)) for key in missing
    ]
    ready_now = [
        index for index, left in enumerate(pending) if left == 0
    ]

    def on_result(name, value, submit) -> None:
        if name.startswith("record/"):
            index = batch_of[value["run_index"]]
            pending[index] -= 1
            if pending[index] == 0:
                start_analyzing()
                submit("analyze/%d" % index,
                       analyze_task(batches[index]))
            return
        for run_index, run in value["results"]:
            results[run_index] = run
        emit_ready()

    if ready_now and not missing:
        start_analyzing()
    for index in ready_now:
        tasks.append(("analyze/%d" % index, analyze_task(batches[index])))

    if run_stream(tasks, on_result):
        raise JobInterrupted("job stop requested (pool drained)")
