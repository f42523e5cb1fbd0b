"""Integration tests: the run-level pipelined scheduler under chaos.

The tentpole contract of the run-level scheduler
(:func:`repro.experiments.pipeline.drive`, run by
:meth:`Suite._run_pipelined` and by the campaign service's
:func:`~repro.service.executor.execute_job`): campaigns decompose into
sizing / record / analyze tasks streamed through one queue, and
*everything observable stays byte-identical to the serial path* --
results, campaign caches, journals, store entries -- no matter which
scheduler or caller ran, which workers died, or where a drain request
landed.  A fault in an accelerated analysis tier inside a worker costs
only a degradation, never a wrong byte.
"""

import glob
import os

import pytest

from repro.common.errors import InterruptedRunError
from repro.cord import CordConfig, CordDetector
from repro.detectors import IdealDetector
from repro.detectors.registry import DetectorSpec
from repro.experiments import pipeline
from repro.experiments.runner import Suite, SuiteConfig
from repro.injection.campaign import (
    CampaignConfig,
    format_campaign_report,
    run_campaign,
)
from repro.resilience import faults
from repro.resilience.guard import GUARD_LOG
from repro.resilience.journal import WAL_SUFFIX, replay
from repro.resilience.procpool import ProcessPool
from repro.service.executor import SERVICE_NAMESPACE, execute_job, result_key
from repro.service.jobs import CampaignSpec
from repro.trace.store import PackedTraceStore
from repro.workloads import WorkloadParams, get_workload

_PARAMS = WorkloadParams(scale=0.25)

#: Deliberately imbalanced mix: ocean is several times heavier than fft
#: at this scale, which is exactly the shape campaign-level pooling
#: handles worst and run-level pipelining handles best.
_CONFIG = SuiteConfig(
    runs_per_app=3,
    workloads=("fft", "ocean"),
    params=_PARAMS,
)


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_MAX_RETRIES", "REPRO_CACHE_DIR"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_FSYNC", "0")
    faults.reset()
    GUARD_LOG.clear()
    yield
    faults.reset()
    GUARD_LOG.clear()


def _digest(suite):
    out = {}
    for name, campaign in suite.campaigns().items():
        out[name] = (
            campaign.sync_instances,
            tuple(campaign.detector_names),
            [
                (
                    run.run_index,
                    run.seed,
                    run.target_index,
                    tuple(sorted(run.flagged.items())),
                    tuple(sorted(run.problem.items())),
                )
                for run in campaign.runs
            ],
        )
    return out


def _campaign_caches(cache_dir):
    return {
        os.path.basename(path): open(path, "rb").read()
        for path in glob.glob(str(cache_dir / "campaign-*.pkl"))
    }


class TestSchedulerEquivalence:
    """Serial, uncached and cached run-level runs are byte-identical."""

    def test_all_schedulers_agree(self, tmp_path):
        # The scheduler follows from jobs and the cache directory.
        arms = {
            "serial": Suite(_CONFIG, jobs=1, cache_dir=tmp_path / "s"),
            "uncached": Suite(_CONFIG, jobs=2),
            "pipeline": Suite(_CONFIG, jobs=2, cache_dir=tmp_path / "p"),
        }
        digests = {name: _digest(suite) for name, suite in arms.items()}
        assert digests["pipeline"] == digests["serial"]
        assert digests["uncached"] == digests["serial"]
        uncached = arms["uncached"].last_report.outcomes
        assert {out.path for out in uncached} == {"pool"}
        for arm in ("uncached", "pipeline"):
            assert any(
                out.name.startswith("rec:")
                for out in arms[arm].last_report.outcomes
            )
        serial_caches = _campaign_caches(tmp_path / "s")
        assert serial_caches
        assert _campaign_caches(tmp_path / "p") == serial_caches

    def test_batch_size_does_not_change_bytes(self, tmp_path,
                                              monkeypatch):
        reference = Suite(_CONFIG, jobs=2, cache_dir=tmp_path / "a")
        reference.campaigns()
        monkeypatch.setattr(pipeline, "BATCH_RUNS", 1)
        one_by_one = Suite(_CONFIG, jobs=2, cache_dir=tmp_path / "b")
        one_by_one.campaigns()
        assert _campaign_caches(tmp_path / "b") == _campaign_caches(
            tmp_path / "a"
        )

    def test_warm_and_partial_cache_accounting(self, tmp_path):
        cache = tmp_path / "warm"
        cold = Suite(_CONFIG, jobs=2, cache_dir=cache)
        cold.campaigns()
        reference = _campaign_caches(cache)

        # Fully warm: served without any fan-out at all.
        warm = Suite(_CONFIG, jobs=2, cache_dir=cache)
        warm.campaigns()
        assert warm.last_report is None

        # Partially warm: the evicted campaign recomputes from the
        # recorded traces (no record tasks), the cache hit shows up as
        # its own report row, and the rewritten bytes are identical.
        evicted = cold._cache_path("fft")
        evicted.unlink()
        partial = Suite(_CONFIG, jobs=2, cache_dir=cache)
        partial.campaigns()
        paths = {out.path for out in partial.last_report.outcomes}
        assert "cache" in paths
        assert not any(
            out.name.startswith("rec:")
            for out in partial.last_report.outcomes
        )
        assert _campaign_caches(cache) == reference


def _store_entries(traces, skip=()):
    return {
        path.name: path.read_bytes()
        for path in traces.iterdir()
        if path.is_file() and path.name not in skip
    }


class TestOneDriver:
    """The Suite pipeline and a service job drive the same stages."""

    def test_suite_and_service_write_identical_stores(self, tmp_path):
        spec = CampaignSpec(workload="fft", runs=6, seed=2006, scale=0.25)
        suite_dir = tmp_path / "suite"
        suite = Suite(
            SuiteConfig(runs_per_app=6, base_seed=2006, workloads=("fft",),
                        params=_PARAMS),
            jobs=2, cache_dir=suite_dir,
        )
        expected = format_campaign_report(suite.campaign("fft"))
        reference = _store_entries(suite_dir / "traces")
        assert reference

        pool = ProcessPool(pipeline.run_stage_task, 2)
        pool.start()
        try:
            arms = {"inline": pipeline.run_stage_task, "pooled": pool.run}
            for arm, run_stage in arms.items():
                root = tmp_path / arm
                outcome = execute_job(spec, root, run_stage=run_stage)
                assert outcome["report"] == expected, arm
                result_doc = PackedTraceStore(root / "traces").entry_path(
                    "value", SERVICE_NAMESPACE, result_key(spec)
                )
                assert result_doc.exists()
                assert _store_entries(
                    root / "traces", skip=(result_doc.name,)
                ) == reference, arm
        finally:
            pool.shutdown()

    def test_analyze_stage_runs_the_config_detectors(self, tmp_path):
        # The analyze payload carries the campaign's CampaignConfig: a
        # custom detector suite is the one every run is analyzed with,
        # exactly as the in-memory campaign loop analyzes it.
        config = CampaignConfig(n_runs=3, detectors=[
            DetectorSpec("Ideal", lambda n: IdealDetector(n)),
            DetectorSpec("D=4", lambda n: CordDetector(CordConfig(d=4), n)),
        ])
        done = {}
        interrupted = pipeline.drive(
            [pipeline.Campaign("fft", _PARAMS, config)],
            PackedTraceStore(tmp_path / "traces"),
            pipeline.inline_stream(pipeline.run_stage_task),
            on_campaign=done.__setitem__,
        )
        assert not interrupted
        campaign = done["fft"]
        assert campaign.detector_names == ["Ideal", "D=4"]
        for run in campaign.runs:
            assert list(run.flagged) == campaign.detector_names
            assert list(run.counters) == campaign.detector_names
        reference = run_campaign(
            get_workload("fft").program_factory(_PARAMS), "fft", config
        )
        assert [
            (run.flagged, run.problem, run.counters) for run in campaign.runs
        ] == [
            (run.flagged, run.problem, run.counters)
            for run in reference.runs
        ]


class TestPipelineUnderChaos:
    """Killed workers and drain requests against the run-level path."""

    def test_worker_kill_leaves_identical_state(self, tmp_path,
                                                monkeypatch):
        clean_dir = tmp_path / "clean"
        clean = _digest(Suite(_CONFIG, jobs=2, cache_dir=clean_dir))

        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:1")
        faults.arm()
        faulted_dir = tmp_path / "faulted"
        suite = Suite(_CONFIG, jobs=2, cache_dir=faulted_dir)
        assert _digest(suite) == clean
        assert suite.last_report.degraded
        assert _campaign_caches(faulted_dir) == _campaign_caches(
            clean_dir
        )

    def test_drain_is_resumable_and_bit_identical(self, tmp_path,
                                                  monkeypatch):
        clean_dir = tmp_path / "clean"
        baseline = _digest(Suite(_CONFIG, jobs=2, cache_dir=clean_dir))

        # Land the drain request mid-campaign: after the workload rows
        # and the first few per-run rows have hit the journal.
        cache = tmp_path / "interrupted"
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:6")
        faults.arm()
        suite = Suite(_CONFIG, jobs=2, cache_dir=cache)
        with pytest.raises(InterruptedRunError) as excinfo:
            suite.campaigns()
        run_id = excinfo.value.run_id
        assert run_id is not None
        assert suite.last_report.interrupted
        assert not any(
            out.status == "failed"
            for out in suite.last_report.outcomes
        )
        assert list(cache.rglob("*.tmp.*")) == []

        # The journal replays: workload rows scheduled, nothing lies
        # about completion.
        wal = cache / "journal" / (run_id + WAL_SUFFIX)
        assert wal.exists()
        state = replay(wal)
        assert state.task("fft").scheduled
        assert not state.finished

        # Resume over the same cache completes bit-identically.
        faults.arm("")
        resumed = Suite(_CONFIG, jobs=2, cache_dir=cache)
        assert _digest(resumed) == baseline
        assert resumed.warnings["resumed"] == 1
        assert _campaign_caches(cache) == _campaign_caches(clean_dir)
        assert replay(cache / "journal" / (run_id + ".done")).finished

    def test_every_drain_point_resumes(self, tmp_path, monkeypatch):
        # Sweep the drain tick across the journal's first transitions:
        # wherever SIGTERM lands, the resume completes byte-identically.
        clean_dir = tmp_path / "clean"
        Suite(_CONFIG, jobs=2, cache_dir=clean_dir).campaigns()
        clean = _campaign_caches(clean_dir)
        for tick in (1, 4, 9):
            cache = tmp_path / ("drain%d" % tick)
            monkeypatch.setenv(
                "REPRO_FAULTS", "sigterm_drain:%d" % tick
            )
            faults.arm()
            with pytest.raises(InterruptedRunError):
                Suite(_CONFIG, jobs=2, cache_dir=cache).campaigns()
            faults.arm("")
            monkeypatch.delenv("REPRO_FAULTS")
            resumed = Suite(_CONFIG, jobs=2, cache_dir=cache)
            resumed.campaigns()
            assert resumed.warnings["resumed"] == 1
            assert _campaign_caches(cache) == clean


class TestFusedFault:
    """A fused-tier crash inside pipelined workers changes no byte."""

    def test_fused_raise_is_transparent(self, tmp_path, monkeypatch):
        clean_dir = tmp_path / "clean"
        Suite(_CONFIG, jobs=1, cache_dir=clean_dir).campaigns()
        monkeypatch.setenv("REPRO_FAULTS", "fused_raise:1")
        faults.arm()
        faulted_dir = tmp_path / "faulted"
        Suite(_CONFIG, jobs=2, cache_dir=faulted_dir).campaigns()
        assert _campaign_caches(faulted_dir) == _campaign_caches(
            clean_dir
        )
