"""Run-level pipeline: the stage tasks and the one driver that schedules them.

The record-once / analyze-many split makes a campaign a *sizing* run,
``n_runs`` independent *record* steps, and analysis passes over the
recorded traces, every one a deterministic pure function of
``(workload, base_seed)``.  Scheduling these stages instead of whole
campaigns balances a pool across runs, not workloads, and lets
recording overlap analysis.

This module holds both halves of that decomposition.  The worker half
is one picklable payload per stage, dispatched by :func:`run_stage_task`
inside a process of the pre-forked pool
(:mod:`repro.resilience.procpool`), on a remote worker, or inline.  The
parent half is :func:`drive`: it probes the store for the sizing count,
shards each campaign into its run keys, dispatches record tasks,
batches analysis and assembles each :class:`CampaignResult` in
run-index order.  The Suite (:meth:`Suite._run_pipelined`) and the
record-once sweep (:func:`repro.experiments.sensitivity._run_sweep`)
reach it through :func:`run_campaigns`, which picks the store and
journals through :func:`journal_hooks`; the campaign service
(:func:`repro.service.executor.execute_job`) calls it directly and
keeps its job WAL in its own hooks.  So all three split and assemble
work the same way wherever it runs.  A finished campaign is committed
through :func:`store_committed` and served back by
:func:`load_committed`, one store entry keyed by :attr:`Campaign.key`
that the Suite and the service share.

Stages (``payload["stage"]``):

``"size"``
    Count the workload's dynamic sync instances (store-cached under the
    sizing seed, exactly like :func:`repro.injection.campaign
    ._run_campaign`); returns the count.

``"record"``
    Record one injected run into the trace store
    (:func:`~repro.injection.campaign.record_injected_once`).  Only the
    ``run_index`` travels back -- the trace stays in the store, where
    the analyze stage maps it zero-copy; nothing multi-megabyte is ever
    pickled through the result pipe.

``"analyze"``
    Load a batch of recorded runs and analyze each one with the
    payload's ``CampaignConfig`` detector suite
    (:func:`~repro.injection.campaign.analyze_recorded`), persisting
    each run's outcome bundle when the payload says ``"persist"``;
    returns the per-run :class:`~repro.injection.campaign.RunResult`
    rows.

Every stage is idempotent and keyed into the store, so pool retries,
in-process fallbacks, and resumed runs recompute nothing that is
already durable -- and recompute *identically* when they must (the
deterministic-seeding contract).  Per-stage wall times come back in the
``"timings"`` entry (``record_s`` / ``analyze_s`` / ``store_io_s``),
which the Suite keeps per task for ``figures --profile``.  Each stage
opens its own store and returns that store's counters in a ``"store"``
entry, so a caller running stages in other processes can still total
them.
"""

from __future__ import annotations

import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import InterruptedRunError, SimulationError
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    RunResult,
    analyze_recorded,
    campaign_key,
    campaign_run_keys,
    campaign_sizing_seed,
    record_injected_once,
    sizing_key,
    trace_namespace,
)
from repro.injection.injector import count_sync_instances
from repro.resilience.journal import RunCheckpoint, TaskCheckpoint
from repro.trace.store import PackedTraceStore
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload

#: Longest wait between two ``stop`` polls of a streaming run.
STOP_POLL_S = 0.1

#: Analysis batch size: how many recorded runs one analyze task covers.
#: Small enough that recording stays ahead of analysis and a retried
#: analyze task re-covers little work.
BATCH_RUNS = 4


def size_payload(
    workload: str, params: WorkloadParams, store_dir: str,
    namespace: str, sizing_seed: int,
) -> Dict:
    return {
        "stage": "size", "workload": workload, "params": params,
        "store_dir": store_dir, "namespace": namespace,
        "sizing_seed": sizing_seed,
    }


def record_payload(
    workload: str, params: WorkloadParams, store_dir: str,
    namespace: str, run_index: int, seed: int, target: int,
    switch_probability: float,
) -> Dict:
    return {
        "stage": "record", "workload": workload, "params": params,
        "store_dir": store_dir, "namespace": namespace,
        "run_index": run_index, "seed": seed, "target": target,
        "switch_probability": switch_probability,
    }


def analyze_payload(
    workload: str, params: WorkloadParams, store_dir: str,
    namespace: str, runs: List[Tuple[int, int, int]],
    config: CampaignConfig, persist: bool,
) -> Dict:
    return {
        "stage": "analyze", "workload": workload, "params": params,
        "store_dir": store_dir, "namespace": namespace,
        "runs": runs, "config": config, "persist": persist,
    }


def run_stage_task(payload: Dict) -> Dict:
    """Execute one pipeline stage, in whichever process runs it.

    Rebuilds the store (skipping fsync when the payload says
    ``"fsync": False``) and the program factory from the payload; the
    counters of the store opened here come back as the value's
    ``"store"`` entry.
    """
    store = PackedTraceStore(payload["store_dir"], payload.get("fsync"))
    value = _run_stage(payload, store)
    value["store"] = store.snapshot()
    return value


def _run_stage(payload: Dict, store) -> Dict:
    stage = payload["stage"]
    namespace = payload["namespace"]
    factory = get_workload(payload["workload"]).program_factory(
        payload["params"]
    )

    if stage == "size":
        started = time.monotonic()
        sizing_seed = payload["sizing_seed"]
        # Re-probe before simulating: on a pool retry (or a
        # concurrent suite over the same store) the value may have
        # landed since this task was scheduled.
        instances = store.load_value(namespace, sizing_key(sizing_seed))
        if instances is None:
            instances = count_sync_instances(
                factory(sizing_seed), sizing_seed
            )
            store.store_value(namespace, sizing_key(sizing_seed), instances)
        return {
            "instances": instances,
            "timings": {"record_s": time.monotonic() - started},
        }

    if stage == "record":
        started = time.monotonic()
        record_injected_once(
            factory,
            payload["seed"],
            payload["target"],
            run_index=payload["run_index"],
            switch_probability=payload["switch_probability"],
            store=store,
            namespace=namespace,
        )
        return {
            "run_index": payload["run_index"],
            "timings": {"record_s": time.monotonic() - started},
        }

    if stage != "analyze":
        raise ValueError("unknown pipeline stage %r" % (stage,))

    config = payload["config"]
    detectors = config.detector_suite()
    switch_probability = config.switch_probability
    started = time.monotonic()
    # Store hits, zero-copy off the mmap; a missing or quarantined entry
    # falls back to deterministic re-recording inside.
    recorded = [
        record_injected_once(
            factory, seed, target,
            run_index=run_index,
            switch_probability=switch_probability,
            store=store,
            namespace=namespace,
        )
        for run_index, seed, target in payload["runs"]
    ]
    loaded = time.monotonic()
    results = [
        analyze_recorded(
            run,
            detectors,
            config.check_soundness,
            store=store if payload["persist"] else None,
            namespace=namespace,
            switch_probability=switch_probability,
        )
        for run in recorded
    ]
    finished = time.monotonic()
    return {
        "results": [(run.run_index, run) for run in results],
        "timings": {
            "store_io_s": loaded - started,
            "analyze_s": finished - loaded,
        },
    }


# -- the parent half: one driver for every caller -----------------------------

#: ``(name, payload)``: one stage task as a runner receives it.
Task = Tuple[str, Dict]

#: ``submit(name, payload)``: enqueue a follow-up task on a running stream.
Submit = Callable[[str, Dict], None]

#: A streaming task runner, ``run_stream(tasks, on_result) -> interrupted``.
#: It runs every task, calling ``on_result(name, value, submit)`` as each
#: one succeeds (``submit`` adds follow-up tasks to the same stream),
#: until none is queued or running, and returns whether it stopped early.
RunStream = Callable[[List[Task], Callable[[str, Dict, Submit], None]], bool]

#: ``(run_index, seed, target)``: one run's place in a campaign.
RunKey = Tuple[int, int, int]


@dataclass(frozen=True)
class Campaign:
    """One campaign for :func:`drive`: a workload program and its config."""

    workload: str
    params: WorkloadParams
    config: CampaignConfig

    @property
    def namespace(self) -> str:
        return trace_namespace(self.workload, self.params)

    @property
    def key(self) -> Tuple:
        """Store key of the committed result, under :attr:`namespace`."""
        return campaign_key(self.config)


def load_committed(
    store: PackedTraceStore, campaign: Campaign
) -> Optional[CampaignResult]:
    """The campaign's committed result in ``store``, or None.

    Missing, torn, stale and wrong-type entries are all misses, each
    counted in ``store.stats`` (the damaged ones quarantined).
    """
    return store.load_value(
        campaign.namespace, campaign.key, expect=CampaignResult
    )


def store_committed(
    store: PackedTraceStore, campaign: Campaign, result: CampaignResult
) -> None:
    """Commit a finished campaign: the CLI's Suite and a service job
    write the same bytes at the same key."""
    store.store_value(campaign.namespace, campaign.key, result)


def _noop(*_args) -> None:
    return None


def inline_stream(
    run_task: Callable[[Dict, str], Dict],
    stop: Optional[Callable[[], bool]] = None,
    width: int = 1,
) -> RunStream:
    """A :data:`RunStream` over ``width`` tasks at a time, first in first
    out.

    ``run_task(payload, name)`` (the signature of
    :meth:`~repro.resilience.procpool.ProcessPool.run`) runs one task
    and blocks until it is done: in this thread at ``width == 1``, else
    on one of up to ``width`` threads.  ``on_result`` always runs here.

    The drain rule: ``stop()`` is polled before each dispatch and at
    least every :data:`STOP_POLL_S` while waiting; once true, nothing
    new starts, the tasks in flight finish and their results are
    delivered, and the stream returns interrupted if tasks were left.
    The error rule: once a task (or ``on_result``) raises, nothing new
    starts, the tasks in flight finish, and that first exception is
    re-raised.
    """
    def run_stream(tasks, on_result) -> bool:
        queue = deque(tasks)
        settled: SimpleQueue = SimpleQueue()
        running, stopped, failure = 0, False, None

        def run(name: str, payload: Dict) -> None:
            try:
                settled.put((name, run_task(payload, name), None))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                settled.put((name, None, exc))

        while True:
            while queue and running < width and not (stopped or failure):
                stopped = stop is not None and stop()
                if not stopped:
                    running += 1
                    task = queue.popleft()
                    if width == 1:
                        run(*task)
                    else:
                        threading.Thread(
                            target=run, args=task, daemon=True
                        ).start()
            if not running:
                break
            try:
                name, value, failed = settled.get(timeout=STOP_POLL_S)
            except Empty:
                stopped = stopped or (stop is not None and stop())
                continue
            running -= 1
            if failure is None and failed is None:
                try:
                    on_result(name, value, lambda *task: queue.append(task))
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    failed = exc
            failure = failure or failed
        if failure is not None:
            raise failure
        return bool(queue)

    return run_stream


class _Shard:
    """One sized campaign's scheduling state inside :func:`drive`."""

    def __init__(self, campaign: Campaign, instances: int,
                 keys: List[RunKey]):
        self.campaign = campaign
        self.instances = instances
        self.keys = keys
        # Read at call time, so a patched BATCH_RUNS takes effect.
        size = BATCH_RUNS
        self.batches = [keys[i: i + size] for i in range(0, len(keys), size)]
        self.batch_of = {
            run_index: index
            for index, batch in enumerate(self.batches)
            for run_index, _seed, _target in batch
        }
        #: Records each batch still waits for before it can be analyzed.
        self.waiting = [0] * len(self.batches)
        self.analyzing = False
        self.results: Dict[int, RunResult] = {}
        self.emitted = 0


def drive(
    campaigns: Sequence[Campaign],
    store: PackedTraceStore,
    run_stream: RunStream,
    on_sharded: Callable[[str, int, List[RunKey], Dict[int, bool]],
                         None] = _noop,
    on_recorded: Callable[[str, int], None] = _noop,
    on_analyzing: Callable[[str], None] = _noop,
    on_run: Callable[[str, RunResult], None] = _noop,
    on_campaign: Callable[[str, CampaignResult], None] = _noop,
    persist_outcomes: bool = True,
) -> bool:
    """Run ``campaigns`` as stage tasks on ``run_stream``.

    Every campaign is sized (from the store when a previous run
    persisted the count, else by a ``size:<wl>`` task), sharded into its
    :func:`~repro.injection.campaign.campaign_run_keys`, recorded by one
    ``rec:<wl>/run<N>`` task per run not yet durable in ``store``, and
    analyzed in fixed key-order batches of :data:`BATCH_RUNS`
    (``an:<wl>#<k>``); a batch is submitted once its last missing
    record is durable.  The hooks carry the caller's durability, each
    called on the thread that calls ``on_result``:

    * ``on_sharded(workload, instances, keys, durable)`` once the run
      keys are known, before any of them is submitted (``durable``
      maps each run index to whether its recording already exists);
    * ``on_recorded(workload, run_index)`` as a record task completes;
    * ``on_analyzing(workload)`` just before a campaign's first
      analysis batch is submitted;
    * ``on_run(workload, run)`` per analyzed run, in run-index order;
    * ``on_campaign(workload, result)`` once a campaign's last run is
      analyzed.

    With ``persist_outcomes`` the analyze stages write every run's
    outcome bundle to ``store``, so a resumed run re-analyzes nothing.
    Returns whether ``run_stream`` was interrupted; campaigns finished
    before that point have already gone through ``on_campaign``.
    Raises :class:`SimulationError` for a workload with nothing to
    inject.
    """
    store_dir = str(store.root)
    by_name = {campaign.workload: campaign for campaign in campaigns}
    shards: Dict[str, _Shard] = {}

    def stage(submit: Submit, name: str, payload: Dict) -> None:
        # A store that skips fsync has every stage's store skip it too.
        if store.fsync is False:
            payload["fsync"] = False
        submit(name, payload)

    def analyze(shard: _Shard, index: int, submit: Submit) -> None:
        campaign = shard.campaign
        if not shard.analyzing:
            shard.analyzing = True
            on_analyzing(campaign.workload)
        stage(
            submit,
            "an:%s#%d" % (campaign.workload, index + 1),
            analyze_payload(
                campaign.workload, campaign.params, store_dir,
                campaign.namespace, shard.batches[index],
                campaign.config, persist_outcomes,
            ),
        )

    def shard_campaign(campaign: Campaign, instances: int,
                       submit: Submit) -> None:
        name, config = campaign.workload, campaign.config
        if not instances:
            raise SimulationError(
                "workload %r has no injectable sync instances" % name
            )
        keys = campaign_run_keys(name, config, instances)
        durable = {
            run_index: store.has_run(
                campaign.namespace,
                (seed, target, config.switch_probability),
            )
            for run_index, seed, target in keys
        }
        on_sharded(name, instances, keys, durable)
        shard = shards[name] = _Shard(campaign, instances, keys)
        for run_index, seed, target in keys:
            if durable[run_index]:
                continue
            shard.waiting[shard.batch_of[run_index]] += 1
            stage(
                submit,
                "rec:%s/run%d" % (name, run_index),
                record_payload(
                    name, campaign.params, store_dir, campaign.namespace,
                    run_index, seed, target, config.switch_probability,
                ),
            )
        for index, left in enumerate(shard.waiting):
            if not left:
                analyze(shard, index, submit)

    def on_result(name: str, value: Dict, submit: Submit) -> None:
        kind, _, rest = name.partition(":")
        if kind == "size":
            shard_campaign(by_name[rest], value["instances"], submit)
            return
        if kind == "rec":
            shard = shards[rest.partition("/")[0]]
            run_index = value["run_index"]
            on_recorded(shard.campaign.workload, run_index)
            index = shard.batch_of[run_index]
            shard.waiting[index] -= 1
            if not shard.waiting[index]:
                analyze(shard, index, submit)
            return
        shard = shards[rest.rpartition("#")[0]]
        campaign = shard.campaign
        shard.results.update(value["results"])
        while shard.emitted in shard.results:
            on_run(campaign.workload, shard.results[shard.emitted])
            shard.emitted += 1
        if shard.emitted == len(shard.keys):
            on_campaign(campaign.workload, CampaignResult(
                workload=campaign.workload,
                detector_names=[
                    spec.name for spec in campaign.config.detector_suite()
                ],
                sync_instances=shard.instances,
                runs=[shard.results[key[0]] for key in shard.keys],
            ))

    tasks: List[Task] = []
    for campaign in campaigns:
        sizing_seed = campaign_sizing_seed(
            campaign.workload, campaign.config.base_seed
        )
        instances = store.load_value(
            campaign.namespace, sizing_key(sizing_seed)
        )
        if instances is not None:
            shard_campaign(campaign, instances,
                           lambda *task: tasks.append(task))
        else:
            stage(
                lambda *task: tasks.append(task),
                "size:" + campaign.workload,
                size_payload(
                    campaign.workload, campaign.params, store_dir,
                    campaign.namespace, sizing_seed,
                ),
            )
    return run_stream(tasks, on_result)


def journal_hooks(
    ckpt: RunCheckpoint,
    workloads: Sequence[str],
    on_campaign: Callable[[str, CampaignResult], None],
) -> Dict[str, Callable]:
    """The :func:`drive` hooks of a checkpointed run.

    The journal keeps one workload-level task per campaign plus one
    ``<workload>/run<N>`` task per run, each logging
    ``scheduled -> recorded -> committed``.  ``on_campaign`` gets each
    finished campaign (the Suite writes its cache entry there) before
    the workload task commits.
    """
    wl_tasks = {}
    for name in workloads:
        wl_tasks[name] = ckpt.task(name)
        wl_tasks[name].scheduled()
    run_tasks: Dict[Tuple[str, int], TaskCheckpoint] = {}

    def journal(transition) -> None:
        # Journal transitions are observational here; one that loses
        # the race against a drain request just skips its record (the
        # streaming loop surfaces the drain through its stop poll, and
        # stores stay the source of truth on resume).
        try:
            transition()
        except InterruptedRunError:
            pass

    def on_sharded(name, _instances, keys, durable) -> None:
        for run_index, _seed, _target in keys:
            task = ckpt.task("%s/run%d" % (name, run_index))
            run_tasks[name, run_index] = task
            journal(task.scheduled)
            if durable[run_index]:
                journal(task.recorded)

    def commit_campaign(name: str, result: CampaignResult) -> None:
        # Streamed commit: a later drain or failure costs none of this
        # campaign's work.
        on_campaign(name, result)
        wl_tasks[name].committed()

    return dict(
        on_sharded=on_sharded,
        on_recorded=lambda name, run_index: journal(
            run_tasks[name, run_index].recorded
        ),
        on_run=lambda name, run: run_tasks[name, run.run_index].committed(),
        on_campaign=commit_campaign,
    )


def run_campaigns(
    campaigns: Sequence[Campaign],
    store: Optional[PackedTraceStore],
    on_campaign: Callable[[str, CampaignResult], None],
    ckpt: Optional[RunCheckpoint] = None,
    run_stream: Optional[RunStream] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> None:
    """Run ``campaigns`` on :func:`drive`: the Suite's and the sweep's glue.

    The stages meet in ``store``, or without one in a temporary store
    that skips fsync and is deleted on return and on any exception.
    With a ``ckpt`` every campaign and run is journaled
    (:func:`journal_hooks`) and the outcome bundles are persisted, so a
    resumed run re-analyzes nothing; an unjournaled run writes no
    bundle, since nothing resumes from it.  ``run_stream`` defaults to
    running each task in this process, polling ``stop`` before each
    one, and adding every stage's store counters into ``store.stats``.
    Raises :class:`~repro.common.errors.InterruptedRunError` if the
    stream stopped early.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-traces-") as root:
            return run_campaigns(
                campaigns, PackedTraceStore(root, fsync=False), on_campaign,
                ckpt, run_stream, stop,
            )
    if run_stream is None:
        def run_stage(payload: Dict, _name: str) -> Dict:
            value = run_stage_task(payload)
            store.stats.update(value["store"])
            return value

        run_stream = inline_stream(run_stage, stop)
    hooks: Dict[str, Callable] = {"on_campaign": on_campaign}
    if ckpt is not None:
        hooks = journal_hooks(
            ckpt, [campaign.workload for campaign in campaigns], on_campaign
        )
    if drive(campaigns, store, run_stream,
             persist_outcomes=ckpt is not None, **hooks):
        raise InterruptedRunError(ckpt.run_id if ckpt is not None else None)
