"""Run-level pipeline stages: the unit of work under the streaming pool.

:meth:`Suite.campaigns` historically scheduled one *whole campaign* per
supervisor task, so a pool was load-balanced across workloads only --
the slowest campaign bounded the wall clock, and inside each campaign
recording and analysis alternated serially per run.  The record-once /
analyze-many split makes the finer decomposition natural: a campaign is
a *sizing* run, ``n_runs`` independent *record* steps, and analysis
passes over the recorded traces, every one a deterministic pure function
of ``(workload, base_seed)``.

This module holds the worker half of that decomposition: one picklable
payload per stage, dispatched by :func:`run_stage_task` inside a
supervisor child (or inline, on the serial fallback rung).  The parent
half -- streaming results, batching analysis, journaling, canonical
assembly -- lives in :meth:`Suite._run_pipelined`.

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
    Load a batch of recorded runs and analyze each one
    (:func:`~repro.injection.campaign.analyze_recorded`); returns the
    per-run :class:`~repro.injection.campaign.RunResult` rows.

Every stage is idempotent and keyed into the store, so supervisor
retries, serial fallbacks, and resumed runs recompute nothing that is
already durable -- and recompute *identically* when they must (the
deterministic-seeding contract).  Per-stage wall times come back in the
``"timings"`` entry (``record_s`` / ``analyze_s`` / ``store_io_s``) and
are merged into the task's :class:`~repro.resilience.supervisor
.TaskOutcome` for :meth:`RunReport.profile`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.injection.campaign import analyze_recorded, record_injected_once
from repro.injection.injector import count_sync_instances
from repro.trace.store import PackedTraceStore
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload

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
    switch_probability: float, check_soundness: bool,
) -> Dict:
    return {
        "stage": "analyze", "workload": workload, "params": params,
        "store_dir": store_dir, "namespace": namespace,
        "runs": runs, "switch_probability": switch_probability,
        "check_soundness": check_soundness,
    }


def run_stage_task(payload: Dict, store=None, factory=None) -> Dict:
    """Execute one pipeline stage (module-level, picklable).

    Supervisor children call this with just the payload and rebuild the
    store and program factory from it.  In-process callers (the serial
    fallback rung, the campaign service's inline executor) may pass
    their own ``store``/``factory`` so one instance's stats counters
    aggregate across every stage of a job instead of being discarded
    with each per-call store.
    """
    stage = payload["stage"]
    if store is None:
        store = PackedTraceStore(payload["store_dir"])
    namespace = payload["namespace"]
    if factory is None:
        factory = get_workload(payload["workload"]).program_factory(
            payload["params"]
        )

    if stage == "size":
        started = time.monotonic()
        sizing_seed = payload["sizing_seed"]
        sizing_key = ("sync_instances", sizing_seed)
        # Re-probe before simulating: on a supervisor retry (or a
        # concurrent suite over the same store) the value may have
        # landed since this task was scheduled.
        instances = store.load_value(namespace, sizing_key)
        if instances is None:
            instances = count_sync_instances(
                factory(sizing_seed), sizing_seed
            )
            store.store_value(namespace, sizing_key, instances)
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

    from repro.injection.campaign import CampaignConfig

    detectors = CampaignConfig().detector_suite()
    switch_probability = payload["switch_probability"]
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
            payload["check_soundness"],
            store=store,
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
