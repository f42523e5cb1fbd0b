"""Ablation sweeps: dense D and cache-capacity sensitivity curves.

Extends Figures 14-17's four sample points per axis into full curves:
the D knee must sit at small D with a plateau after (the paper found
D=16 saturating), and detection must grow monotonically with metadata
capacity up to a plateau (the paper's InfCache ~ L2Cache finding).

Sweeps run in record-once / analyze-many mode: each injected run is
simulated once and every sweep point analyzes the shared packed trace.
``test_record_once_speedup`` measures that mode against the legacy
per-configuration protocol on the same 8-point D sweep and asserts the
end-to-end speedup (threshold ``CORD_BENCH_SPEEDUP_MIN``, default 3;
results are bit-identical by construction and asserted here too).

The zero-copy trace plane adds two store-backed gates on the same
sweep: ``test_cold_sweep_speedup`` (cold store-backed vs per-config,
threshold ``CORD_SWEEP_SPEEDUP_MIN``, default 2) and
``test_warm_sweep_zero_copy`` (a warm re-run serves every recording as
an mmap hit with zero eager deserializations, threshold
``CORD_WARM_SWEEP_SPEEDUP_MIN``, default 2, again vs per-config).

Each arm of a speedup gate is timed as the median of three alternating
samples, so one sample slowed by ambient load cannot decide the gate.
"""

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments.sensitivity import cache_sensitivity, d_sensitivity
from repro.workloads import WorkloadParams

PARAMS = WorkloadParams(scale=0.6)

#: The 8-point D axis (the paper samples 4 of these).
D_SWEEP = (1, 2, 4, 8, 16, 32, 64, 256)

_SWEEP_WORKLOADS = ("fft", "ocean", "fmm")

#: Samples per arm of a speedup gate.
SAMPLES = 3


def _timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _alternating_medians(*arms):
    """``[(median seconds, last result)]``, one per arm, over
    :data:`SAMPLES` rounds that run every arm in turn.

    Each arm is a callable returning ``(seconds, result)``.  Taking one
    sample per arm let ambient load decide a gate: the kernel gate once
    read 1.46x against its 1.5x floor, and 1.85-2.18x on reruns.
    """
    seconds = [[] for _ in arms]
    results = [None] * len(arms)
    for _ in range(SAMPLES):
        for index, arm in enumerate(arms):
            elapsed, results[index] = arm()
            seconds[index].append(elapsed)
    return [
        (statistics.median(times), result)
        for times, result in zip(seconds, results)
    ]


def test_d_sensitivity_curve(benchmark):
    sweep = benchmark.pedantic(
        d_sensitivity,
        kwargs=dict(
            workloads=_SWEEP_WORKLOADS,
            d_values=D_SWEEP,
            runs_per_app=8,
            params=PARAMS,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(sweep.render())
    assert sweep.is_monotone_nondecreasing()
    # The knee: most of the gain arrives by D=4..16; the tail is flat.
    assert sweep.problem_rates[2] >= 0.9 * sweep.problem_rates[-1]
    assert sweep.problem_rates[0] < sweep.problem_rates[-1]


def test_cache_sensitivity_curve(benchmark):
    sweep = benchmark.pedantic(
        cache_sensitivity,
        kwargs=dict(
            workloads=("fft", "lu", "barnes"),
            cache_sizes=(2048, 4096, 8192, 32768, None),
            runs_per_app=8,
            params=PARAMS,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(sweep.render())
    assert sweep.is_monotone_nondecreasing()
    # The paper's finding: the paper-size cache (32 KB) is already at
    # the plateau (InfCache adds nothing).
    assert sweep.problem_rates[-2] == sweep.problem_rates[-1]


def test_kernel_speedup(monkeypatch):
    """Vectorized kernels vs the pure-python packed loops: >= 1.5x.

    Both arms use record-once mode on the same 8-point D sweep; the
    scalar arm runs under ``REPRO_NO_NUMPY=1``, which also disables the
    interval-fused sweep pass (it interprets the same plans).  Reports
    must be bit-identical -- the kernels are accelerators, not
    approximations.  Threshold ``CORD_KERNEL_SPEEDUP_MIN`` (default
    1.5).
    """
    from repro.trace.kernels import NO_NUMPY_ENV, kernels_enabled

    assert kernels_enabled(), (
        "kernel speedup gate needs numpy; do not run this benchmark "
        "in the no-numpy environment"
    )
    kwargs = dict(
        workloads=_SWEEP_WORKLOADS,
        d_values=D_SWEEP,
        runs_per_app=4,
        params=PARAMS,
    )

    def scalar_arm():
        with monkeypatch.context() as patch:
            patch.setenv(NO_NUMPY_ENV, "1")
            return _timed(d_sensitivity, **kwargs)

    (kernel_s, kernel), (scalar_s, scalar) = _alternating_medians(
        lambda: _timed(d_sensitivity, **kwargs), scalar_arm,
    )

    # Same sweep, same reports -- the kernels change cost only.
    assert kernel.points == scalar.points
    assert kernel.problem_rates == scalar.problem_rates
    assert kernel.raw_rates == scalar.raw_rates

    speedup = scalar_s / kernel_s
    print()
    print(
        "kernels %.2fs vs pure python %.2fs: %.2fx"
        % (kernel_s, scalar_s, speedup)
    )
    minimum = float(os.environ.get("CORD_KERNEL_SPEEDUP_MIN", "1.5"))
    assert speedup >= minimum, (
        "kernel speedup %.2fx below required %.1fx" % (speedup, minimum)
    )


def test_record_once_speedup():
    """Record-once vs per-config on the 8-point D sweep: >= 3x, identical."""
    kwargs = dict(
        workloads=_SWEEP_WORKLOADS,
        d_values=D_SWEEP,
        runs_per_app=4,
        params=PARAMS,
    )
    (shared_s, shared), (legacy_s, legacy) = _alternating_medians(
        lambda: _timed(d_sensitivity, **kwargs),
        lambda: _timed(d_sensitivity, mode="per-config", **kwargs),
    )

    # Same sweep, same reports -- sharing recordings changes cost only.
    assert shared.points == legacy.points
    assert shared.problem_rates == legacy.problem_rates
    assert shared.raw_rates == legacy.raw_rates

    speedup = legacy_s / shared_s
    print()
    print(
        "record-once %.2fs vs per-config %.2fs: %.2fx"
        % (shared_s, legacy_s, speedup)
    )
    minimum = float(os.environ.get("CORD_BENCH_SPEEDUP_MIN", "3"))
    assert speedup >= minimum, (
        "record-once speedup %.2fx below required %.1fx"
        % (speedup, minimum)
    )


def test_cold_sweep_speedup():
    """Cold store-backed sweep vs per-config on the 8-point D axis.

    The cold arm records each injected run once into a fresh
    :class:`PackedTraceStore` (v3 column-aligned frames) and analyzes
    every sweep point against the shared recording; the legacy arm
    re-simulates per configuration.  Reports must be bit-identical --
    the store changes cost, never results.  Threshold
    ``CORD_SWEEP_SPEEDUP_MIN`` (default 2).
    """
    from repro.trace.store import PackedTraceStore

    kwargs = dict(
        workloads=_SWEEP_WORKLOADS,
        d_values=D_SWEEP,
        runs_per_app=4,
        params=PARAMS,
    )

    def cold_arm():
        root = Path(tempfile.mkdtemp(prefix="cord-bench-zerocopy-"))
        try:
            store = PackedTraceStore(root / "traces")
            return _timed(d_sensitivity, trace_store=store, **kwargs)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    (cold_s, cold), (legacy_s, legacy) = _alternating_medians(
        cold_arm,
        lambda: _timed(d_sensitivity, mode="per-config", **kwargs),
    )

    assert cold.points == legacy.points
    assert cold.problem_rates == legacy.problem_rates
    assert cold.raw_rates == legacy.raw_rates

    speedup = legacy_s / cold_s
    print()
    print(
        "cold store-backed %.2fs vs per-config %.2fs: %.2fx"
        % (cold_s, legacy_s, speedup)
    )
    minimum = float(os.environ.get("CORD_SWEEP_SPEEDUP_MIN", "2"))
    assert speedup >= minimum, (
        "cold sweep speedup %.2fx below required %.1fx"
        % (speedup, minimum)
    )


def test_warm_sweep_zero_copy():
    """Warm store-backed sweeps re-read every recording zero-copy.

    A cold pass populates the store; the warm pass (a fresh store
    instance over the same directory, so its counters start clean) must
    serve every run as an mmap hit -- zero per-task full
    deserializations, zero re-simulations -- and keep the record-once
    speedup over the per-config protocol (threshold
    ``CORD_WARM_SWEEP_SPEEDUP_MIN``, default 2).  At the benchmark's
    trace sizes mapping is not meaningfully faster than one eager
    decode, so the zero-copy claim is gated on the store's counters,
    not on the mmap-vs-eager wall delta.
    """
    from repro.trace.store import PackedTraceStore
    kwargs = dict(
        workloads=_SWEEP_WORKLOADS,
        d_values=D_SWEEP,
        runs_per_app=4,
        params=PARAMS,
    )
    warm_stats = []

    def warm_arm():
        # A fresh store instance per sample, so its counters start clean.
        warm_store = PackedTraceStore(root / "traces")
        timed = _timed(d_sensitivity, trace_store=warm_store, **kwargs)
        warm_stats.append(dict(warm_store.stats))
        return timed

    root = Path(tempfile.mkdtemp(prefix="cord-bench-zerocopy-"))
    try:
        cold = d_sensitivity(
            trace_store=PackedTraceStore(root / "traces"), **kwargs
        )
        (warm_s, warm), (legacy_s, legacy) = _alternating_medians(
            warm_arm,
            lambda: _timed(d_sensitivity, mode="per-config", **kwargs),
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # The acceptance criterion: every warm pass performed zero per-task
    # full deserializations and zero re-simulations.
    for stats in warm_stats:
        assert stats.get("run_misses", 0) == 0, stats
        assert stats.get("eager_decodes", 0) == 0, stats
        assert stats.get("mmap_hits", 0) > 0, stats

    assert warm.points == cold.points == legacy.points
    assert warm.problem_rates == cold.problem_rates
    assert warm.problem_rates == legacy.problem_rates
    assert warm.raw_rates == cold.raw_rates
    assert warm.raw_rates == legacy.raw_rates

    speedup = legacy_s / warm_s
    print()
    print(
        "warm store-backed %.2fs vs per-config %.2fs: %.2fx "
        "(%d mmap hits, 0 eager decodes)"
        % (warm_s, legacy_s, speedup, warm_stats[-1]["mmap_hits"])
    )
    minimum = float(
        os.environ.get("CORD_WARM_SWEEP_SPEEDUP_MIN", "2")
    )
    assert speedup >= minimum, (
        "warm sweep speedup %.2fx below required %.1fx"
        % (speedup, minimum)
    )


def _whole_campaign(task):
    """One workload's whole campaign, in one pool task (module-level, so
    a forked pool process can run it)."""
    from repro.injection.campaign import CampaignConfig, run_campaign
    from repro.workloads.registry import get_workload

    name, config = task
    return run_campaign(
        get_workload(name).program_factory(config.params),
        name,
        CampaignConfig(n_runs=config.runs_per_app,
                       base_seed=config.base_seed),
    )


def _campaign_digest(campaigns):
    return [
        (name, campaign.sync_instances, [
            (run.run_index, run.seed, run.target_index,
             sorted(run.flagged.items()),
             sorted(run.problem.items()))
            for run in campaign.runs
        ])
        for name, campaign in campaigns.items()
    ]


def test_pipeline_speedup():
    """Run-level pipelining vs campaign-level pooling: >= 1.5x.

    Three cold arms compute the same multi-workload suite on a
    deliberately imbalanced mix (ocean is several times heavier than
    fft or lu, so campaign-level pooling idles every worker behind the
    ocean campaign while run-level scheduling keeps them fed): serial
    and the run-level pipelined scheduler, each a ``Suite`` on a fresh
    cache directory, and campaign-per-task pooling, defined here as
    :meth:`Supervisor.run_stream` over one whole-campaign task per
    workload.  Campaign digests must be equal across all three arms and
    the serial and pipelined cache trees byte-identical -- the
    scheduler changes *where* work runs, never what it computes -- and
    the pipelined wall clock must beat campaign pooling by
    ``CORD_PIPELINE_SPEEDUP_MIN`` (default 1.5).

    The gate needs real parallel hardware: below 4 CPUs the pool arms
    mostly timeshare one core and the comparison measures scheduler
    overhead, not pipelining, so the test skips (set
    ``CORD_PIPELINE_BENCH_FORCE=1`` to run the byte-identity checks
    anyway, e.g. with ``CORD_PIPELINE_SPEEDUP_MIN=0``).
    """
    from repro.experiments.runner import Suite, SuiteConfig
    from repro.resilience.supervisor import Supervisor

    cpus = os.cpu_count() or 1
    if cpus < 4 and not os.environ.get("CORD_PIPELINE_BENCH_FORCE"):
        pytest.skip(
            "pipeline speedup gate needs >= 4 CPUs (have %d)" % cpus
        )
    jobs = min(4, cpus)
    config = SuiteConfig(
        runs_per_app=6,
        workloads=("ocean", "fft", "lu"),
        params=PARAMS,
    )
    saved_fsync = os.environ.get("REPRO_FSYNC")
    os.environ["REPRO_FSYNC"] = "0"

    def run_arm(arm_jobs):
        # With a cache directory, jobs == 1 runs the journaled serial
        # path and jobs > 1 the run-level pipeline.
        root = Path(tempfile.mkdtemp(prefix="cord-bench-pipeline-"))
        try:
            suite = Suite(config, jobs=arm_jobs, cache_dir=str(root))
            start = time.perf_counter()
            campaigns = suite.campaigns()
            wall = time.perf_counter() - start
            caches = {
                p.name: p.read_bytes()
                for p in root.iterdir()
                if p.is_file()
            }
            return wall, (_campaign_digest(campaigns), caches)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_campaign_pool():
        names = config.workload_names()
        start = time.perf_counter()
        finished, _report = Supervisor(
            jobs=min(jobs, len(names)), seed=config.base_seed,
        ).run_stream(
            _whole_campaign, [(name, (name, config)) for name in names],
        )
        wall = time.perf_counter() - start
        return wall, _campaign_digest(
            {name: finished[name] for name in names}
        )

    saved_cache_dir = os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        serial_s, (serial_digest, serial_caches) = run_arm(1)
        (pooled_s, pooled_digest), (pipelined_s, pipelined) = (
            _alternating_medians(run_campaign_pool, lambda: run_arm(jobs))
        )
        pipelined_digest, pipelined_caches = pipelined
    finally:
        if saved_fsync is None:
            os.environ.pop("REPRO_FSYNC", None)
        else:
            os.environ["REPRO_FSYNC"] = saved_fsync
        if saved_cache_dir is not None:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_dir

    # The scheduler contract: every arm computes the same campaigns,
    # and the two cached arms leave identical bytes.
    assert pooled_digest == serial_digest
    assert pipelined_digest == serial_digest
    assert serial_caches
    assert pipelined_caches == serial_caches

    speedup = pooled_s / pipelined_s
    print()
    print(
        "run-pipelined %.2fs vs campaign-pooled %.2fs "
        "(serial %.2fs, %d jobs): %.2fx"
        % (pipelined_s, pooled_s, serial_s, jobs, speedup)
    )
    minimum = float(os.environ.get("CORD_PIPELINE_SPEEDUP_MIN", "1.5"))
    assert speedup >= minimum, (
        "pipeline speedup %.2fx below required %.1fx"
        % (speedup, minimum)
    )


def test_checkpoint_overhead():
    """Crash-consistency is nearly free: journaling a store-backed
    8-point D sweep costs <= ``CORD_CHECKPOINT_OVERHEAD_MAX`` (default
    2%) of the sweep's application time.

    Ambient load on a shared machine moves whole-run wall time by far
    more than the sub-2% effect under test, so the overhead is measured
    *inside* the journaled run instead of by differencing two noisy
    walls: every checkpoint-layer call (journal appends, outcome-bundle
    store traffic, and run-checkpoint open/finish housekeeping) is
    timed, and the gate compares that total against the remaining
    (application) time of the same run -- numerator and denominator
    share whatever slowdown the machine imposed, so the ratio is
    load-invariant.  The minimum over
    ``CORD_CHECKPOINT_BENCH_ROUNDS`` (default 3) rounds is the quiet
    estimate.

    Arms run cold on fresh cache directories with a trace store (the
    store is the shared baseline: the journal rides on it) and fsync
    off (the kernel's durability tax varies with the filesystem and is
    not what this gate is about).  A plain store-backed arm still runs
    each round: its wall time is the recorded baseline, and its report
    must be bit-identical to the journaled arm's -- the journal changes
    cost, never results.
    """
    from repro.resilience import journal as journal_mod
    from repro.resilience.journal import RunCheckpoint
    from repro.trace.store import PackedTraceStore

    kwargs = dict(
        workloads=_SWEEP_WORKLOADS,
        d_values=D_SWEEP,
        runs_per_app=8,
        params=PARAMS,
    )
    rounds = int(os.environ.get("CORD_CHECKPOINT_BENCH_ROUNDS", "3"))
    saved_fsync = os.environ.get("REPRO_FSYNC")
    os.environ["REPRO_FSYNC"] = "0"

    ckpt_cost = [0.0]

    def timed(fn):
        def wrapper(*args, **kw):
            start = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                ckpt_cost[0] += time.perf_counter() - start
        return wrapper

    def timed_value_io(fn):
        # Only the checkpoint layer's own store traffic counts: the
        # per-run outcome bundles.  Sizing entries and trace frames are
        # store costs both arms pay identically.
        def wrapper(self, namespace, key, *args, **kw):
            if not (isinstance(key, tuple) and key[:1] == ("outcomes",)):
                return fn(self, namespace, key, *args, **kw)
            start = time.perf_counter()
            try:
                return fn(self, namespace, key, *args, **kw)
            finally:
                ckpt_cost[0] += time.perf_counter() - start
        return wrapper

    def run_arm(checkpointed):
        root = Path(tempfile.mkdtemp(prefix="cord-bench-ckpt-"))
        try:
            store = PackedTraceStore(root / "traces")
            ckpt = None
            ckpt_cost[0] = 0.0
            if checkpointed:
                open_timed = timed(
                    lambda: RunCheckpoint.open(
                        root, identity=("bench-checkpoint",), kind="sweep"
                    )
                )
                ckpt = open_timed()
            start = time.perf_counter()
            sweep = d_sensitivity(
                trace_store=store, checkpoint=ckpt, **kwargs
            )
            elapsed = time.perf_counter() - start
            if ckpt is not None:
                timed(ckpt.finish)()
                timed(ckpt.close)()
            return elapsed, ckpt_cost[0], sweep
        finally:
            shutil.rmtree(root, ignore_errors=True)

    orig_append = journal_mod.Journal.append
    orig_store = PackedTraceStore.store_value
    orig_load = PackedTraceStore.load_value
    journal_mod.Journal.append = timed(orig_append)
    PackedTraceStore.store_value = timed_value_io(orig_store)
    PackedTraceStore.load_value = timed_value_io(orig_load)
    try:
        plain_s = []
        overheads = []
        journaled_s = []
        plain = journaled = None
        for _ in range(rounds):
            elapsed, _cost, plain = run_arm(checkpointed=False)
            plain_s.append(elapsed)
            elapsed, cost, journaled = run_arm(checkpointed=True)
            journaled_s.append(elapsed)
            overheads.append(cost / (elapsed - cost))
    finally:
        journal_mod.Journal.append = orig_append
        PackedTraceStore.store_value = orig_store
        PackedTraceStore.load_value = orig_load
        if saved_fsync is None:
            os.environ.pop("REPRO_FSYNC", None)
        else:
            os.environ["REPRO_FSYNC"] = saved_fsync

    # Same sweep, same reports -- the journal changes cost only.
    assert journaled.points == plain.points
    assert journaled.problem_rates == plain.problem_rates
    assert journaled.raw_rates == plain.raw_rates

    overhead = min(overheads)
    print()
    print(
        "checkpointed %.3fs (plain store %.3fs), checkpoint layer "
        "%+.2f%% of application time"
        % (min(journaled_s), min(plain_s), 100.0 * overhead)
    )
    maximum = float(
        os.environ.get("CORD_CHECKPOINT_OVERHEAD_MAX", "0.02")
    )
    assert overhead <= maximum, (
        "journaling overhead %.2f%% above the %.1f%% budget"
        % (100.0 * overhead, 100.0 * maximum)
    )
