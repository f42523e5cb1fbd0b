"""Unit tests for the experiment suite's fan-out and committed campaigns.

The contract under test: ``jobs`` and ``cache_dir`` change *where* and
*whether* a campaign computes, never *what* it computes -- results are
bit-identical across serial, pooled, and cache-hit paths.
"""

import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import Counter

import pytest

from repro.common.errors import (
    CordError,
    InterruptedRunError,
    SimulationError,
)
from repro.experiments import pipeline
from repro.experiments.runner import (
    Suite,
    SuiteConfig,
    default_cache_dir,
    default_jobs,
)
from repro.resilience import checkpoint, faults
from repro.resilience.journal import WAL_SUFFIX, replay
from repro.workloads import WorkloadParams

# Two small apps keep the pooled path (len(pending) > 1) exercised while
# staying unit-test fast.
_CONFIG = SuiteConfig(
    runs_per_app=2,
    workloads=("fft", "lu"),
    params=WorkloadParams(scale=0.25),
)


def _entry(suite, workload):
    """The path of ``workload``'s committed-campaign store entry."""
    campaign = suite._campaign_of(workload)
    return suite.store.entry_path("value", campaign.namespace, campaign.key)


def _store_bytes(cache_dir):
    """Every entry of a cache dir's trace store, quarantine aside."""
    traces = cache_dir / "traces"
    return {
        str(path.relative_to(traces)): path.read_bytes()
        for path in traces.rglob("*")
        if path.is_file()
        and "quarantine" not in path.relative_to(traces).parts
    }


def _digest(suite):
    out = {}
    for name, campaign in suite.campaigns().items():
        out[name] = [
            (
                run.seed,
                run.target_index,
                run.hung,
                run.n_events,
                tuple(sorted(run.flagged.items())),
                tuple(sorted(run.problem.items())),
            )
            for run in campaign.runs
        ]
    return out


class TestEnvDefaults:
    def test_default_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1  # clamped to serial
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_jobs() == 1  # malformed: fall back, don't crash

    def test_default_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestParallelFanOut:
    def test_pool_matches_serial(self):
        serial = _digest(Suite(_CONFIG, jobs=1))
        pooled = _digest(Suite(_CONFIG, jobs=2))
        assert serial == pooled

    def test_single_campaign_stays_in_process(self):
        # One pending campaign must not pay pool startup.
        config = SuiteConfig(
            runs_per_app=2,
            workloads=("fft",),
            params=WorkloadParams(scale=0.25),
        )
        suite = Suite(config, jobs=4)
        assert _digest(suite) == _digest(Suite(config, jobs=1))

    def test_campaign_memoized_in_process(self):
        suite = Suite(_CONFIG, jobs=1)
        assert suite.campaign("fft") is suite.campaign("fft")


class TestDiskCache:
    def test_cold_then_warm(self, tmp_path, monkeypatch):
        cold = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        baseline = _digest(cold)
        # The cache dir holds the trace store and the journal, nothing
        # else; each finished campaign is one committed store entry.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "journal", "traces",
        ]
        for name in _CONFIG.workloads:
            assert _entry(cold, name).exists()

        # A warm suite must load results instead of recomputing: poison
        # the compute path and verify it is never reached.
        warm = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)

        def explode(pending):
            raise AssertionError("cache miss recomputed %r" % (pending,))

        monkeypatch.setattr(warm, "_run_pending", explode)
        assert _digest(warm) == baseline
        assert warm.store.stats["quarantined"] == 0

    def test_key_tracks_config(self, tmp_path):
        a = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        b = Suite(
            SuiteConfig(
                runs_per_app=3,  # differs
                workloads=_CONFIG.workloads,
                params=_CONFIG.params,
            ),
            jobs=1,
            cache_dir=tmp_path,
        )
        assert _entry(a, "fft") != _entry(b, "fft")
        # a's committed campaign does not serve b's configuration.
        assert len(a.campaign("fft").runs) == 2
        assert len(b.campaign("fft").runs) == 3

    def test_corrupt_entry_recomputes(self, tmp_path):
        baseline = _digest(Suite(_CONFIG, jobs=1))
        suite = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        path = _entry(suite, "fft")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert _digest(suite) == baseline  # recomputes rather than raising
        assert suite.store.stats["quarantined"] == 1

    def test_wrong_payload_type_recomputes(self, tmp_path):
        suite = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        campaign = suite._campaign_of("fft")
        suite.store.store_value(
            campaign.namespace, campaign.key, {"not": "a CampaignResult"}
        )
        assert pipeline.load_committed(suite.store, campaign) is None
        assert suite.store.stats["quarantined"] == 1
        assert not _entry(suite, "fft").exists()
        assert suite.campaign("fft").runs
        assert pipeline.load_committed(suite.store, campaign) is not None

    def test_no_cache_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        suite = Suite(_CONFIG, jobs=1)
        assert suite.store is None
        suite.campaign("fft")
        assert list(tmp_path.iterdir()) == []


class TestTemporaryStore:
    """Without a cache directory the pipeline's stages meet in a
    temporary trace store, which the suite deletes whether the
    campaigns finish or a stage raises."""

    @pytest.fixture(autouse=True)
    def _private_tempdir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        self.tempdir = tmp_path / "tmp"
        self.tempdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(self.tempdir))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_is_deleted_after_success(self, jobs):
        assert _digest(Suite(_CONFIG, jobs=jobs)) == _digest(
            Suite(_CONFIG, jobs=1, cache_dir=self.tempdir.parent / "c")
        )
        assert list(self.tempdir.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_is_deleted_after_a_stage_raises(self, jobs,
                                                   monkeypatch):
        def fail(*_args, **_kwargs):
            raise SimulationError("injected analysis failure")

        monkeypatch.setattr(pipeline, "analyze_recorded", fail)
        with pytest.raises(CordError, match="injected analysis failure"):
            Suite(_CONFIG, jobs=jobs).campaigns()
        assert list(self.tempdir.iterdir()) == []


class TestResilientFanOut:
    """Retries and serial fallback change *where* a campaign computes,
    never what lands in memory or in the on-disk cache."""

    @pytest.fixture(autouse=True)
    def _fault_hygiene(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_retried_run_leaves_identical_state(self, tmp_path,
                                                monkeypatch):
        clean_dir = tmp_path / "clean"
        clean = _digest(Suite(_CONFIG, jobs=2, cache_dir=clean_dir))

        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:1")
        faults.arm()
        faulted_dir = tmp_path / "faulted"
        suite = Suite(_CONFIG, jobs=2, cache_dir=faulted_dir)
        assert _digest(suite) == clean
        assert suite.pool_counts["replaced"] == len(suite.task_timings)
        # The store written under retry is byte-identical to the one a
        # fault-free run writes, committed campaigns included.
        assert _store_bytes(faulted_dir) == _store_bytes(
            clean_dir
        )

    def test_serial_fallback_keeps_order_and_cache(self, tmp_path,
                                                   monkeypatch):
        baseline = _digest(Suite(_CONFIG, jobs=1))

        # Kill every pool attempt with no retries: every task must run
        # in-process.
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:99")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        faults.arm()
        suite = Suite(_CONFIG, jobs=2, cache_dir=tmp_path)
        digest = _digest(suite)
        assert digest == baseline
        # Under the run-level scheduler the tasks are stages (one per
        # sizing/record/analyze step), not one per workload -- but every
        # one of them must have run in-process.
        assert len(suite.task_timings) >= 2
        assert suite.pool_counts["pooled"] == 0
        assert suite.pool_counts["inline"] == len(suite.task_timings)
        # Results memoize and render in canonical workload order, not
        # completion or fallback order.
        assert list(suite.campaigns().keys()) == ["fft", "lu"]
        # And the serial-fallback results were cached: a warm suite
        # serves them without recomputing.
        faults.arm("")
        warm = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)

        def explode(pending):
            raise AssertionError("cache miss recomputed %r" % (pending,))

        monkeypatch.setattr(warm, "_run_pending", explode)
        assert _digest(warm) == baseline

    def test_corrupt_cache_entry_is_counted_and_quarantined(
        self, tmp_path
    ):
        suite = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        path = _entry(suite, "fft")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a framed pickle")
        assert _digest(suite)  # recomputes
        assert suite.store.stats["quarantined"] == 1
        qdir = tmp_path / "traces" / "quarantine"
        assert (qdir / path.name).exists()
        assert (qdir / (path.name + ".reason.txt")).exists()
        # The recomputed campaign is committed again.
        assert path.exists()


class TestCheckpointedSuite:
    """Crash consistency of the suite itself: with a cache directory the
    fan-out is journaled, a shutdown request drains it to a resumable
    :class:`InterruptedRunError`, and the resumed run leaves state
    byte-identical to an uninterrupted one."""

    @pytest.fixture(autouse=True)
    def _fault_hygiene(self, monkeypatch):
        for var in ("REPRO_FAULTS", "REPRO_MAX_RETRIES"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_FSYNC", "0")  # test-speed writes
        faults.reset()
        yield
        faults.reset()

    def test_clean_checkpointed_run_seals_journal(self, tmp_path):
        suite = Suite(_CONFIG, jobs=2, cache_dir=tmp_path)
        suite.campaigns()
        jdir = tmp_path / "journal"
        done = [p for p in jdir.iterdir() if p.name.endswith(".done")]
        assert len(done) == 1
        state = replay(done[0])
        assert state.finished
        assert state.task("fft").committed
        assert state.task("lu").committed

    def test_single_campaign_routes_through_checkpointed_runner(
        self, tmp_path
    ):
        # Satellite contract: Suite.campaign() gets the same journaled,
        # accounted execution as campaigns() -- and writes the same
        # bytes a full-suite run would for that workload.
        full_dir = tmp_path / "full"
        Suite(_CONFIG, jobs=1, cache_dir=full_dir).campaigns()

        single_dir = tmp_path / "single"
        suite = Suite(_CONFIG, jobs=2, cache_dir=single_dir)
        suite.campaign("fft")
        assert suite.task_timings
        assert suite.pool_counts["pooled"] == len(suite.task_timings)
        done = [
            p for p in (single_dir / "journal").iterdir()
            if p.name.endswith(".done")
        ]
        assert len(done) == 1
        assert replay(done[0]).task("fft").committed
        fft_name = _entry(suite, "fft").name
        assert (single_dir / "traces" / fft_name).read_bytes() == (
            full_dir / "traces" / fft_name
        ).read_bytes()

    def test_drain_interrupts_resumably_without_litter(
        self, tmp_path, monkeypatch
    ):
        clean_dir = tmp_path / "clean"
        baseline = _digest(Suite(_CONFIG, jobs=2, cache_dir=clean_dir))

        # Inject a graceful-shutdown request (SIGTERM's stand-in) at the
        # third journal transition -- while the suite is scheduling its
        # campaigns, before the pool computes anything.
        cache = tmp_path / "interrupted"
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:3")
        faults.arm()
        suite = Suite(_CONFIG, jobs=2, cache_dir=cache)
        with pytest.raises(InterruptedRunError) as excinfo:
            suite.campaigns()
        run_id = excinfo.value.run_id
        assert run_id is not None

        # The drain started no task after the request and left no torn
        # state: no temp files anywhere, and a replayable journal that
        # shows how far the run got.
        assert suite.task_timings == []
        assert suite.pool_counts == dict(
            pooled=0, inline=0, replaced=0, timeouts=0
        )
        assert list(cache.rglob("*.tmp.*")) == []
        wal = cache / "journal" / (run_id + WAL_SUFFIX)
        assert wal.exists()
        state = replay(wal)
        assert state.task("fft").scheduled
        assert not state.task("fft").committed

        # Resume: disarm, rerun over the same cache.  Results and store
        # bytes match the uninterrupted run's, and the resume is
        # surfaced in the warnings counters.
        faults.arm("")
        resumed = Suite(_CONFIG, jobs=2, cache_dir=cache)
        assert _digest(resumed) == baseline
        assert resumed.warnings["resumed"] == 1
        assert _store_bytes(cache) == _store_bytes(clean_dir)
        done = cache / "journal" / (run_id + ".done")
        assert done.exists()
        assert replay(done).finished

    def test_drain_commits_finished_campaigns(self, tmp_path,
                                              monkeypatch):
        # Interrupt the serial (jobs=1) checkpointed run mid-way: the
        # drain lands on record 14, "committed fft", while lu's analysis
        # is still queued, and the committed first campaign must
        # survive for the resume to reuse.
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:14")
        faults.arm()
        suite = Suite(_CONFIG, jobs=1, cache_dir=cache)
        with pytest.raises(InterruptedRunError) as excinfo:
            suite.campaigns()
        wal = cache / "journal" / (
            excinfo.value.run_id + WAL_SUFFIX
        )
        state = replay(wal)
        committed = [
            name for name, task in state.tasks.items()
            if task.committed and "/" not in name
        ]
        assert committed == ["fft"]

        # The resumed run must not recompute committed campaigns: no
        # stage task of the resume belongs to one.
        faults.arm("")
        resumed = Suite(_CONFIG, jobs=1, cache_dir=cache)
        stages = Counter()
        original = pipeline.run_stage_task

        def counting(payload):
            stages[payload["workload"]] += 1
            return original(payload)

        monkeypatch.setattr(pipeline, "run_stage_task", counting)
        assert _digest(resumed)
        assert stages["lu"] > 0
        assert stages.keys().isdisjoint(committed)

    def test_startup_collects_tmp_litter(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", ""])
        proc.wait()
        litter = tmp_path / "traces" / ("value-x.pkl.tmp.%d" % proc.pid)
        litter.parent.mkdir(parents=True, exist_ok=True)
        litter.write_bytes(b"half a write")
        suite = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        suite.campaigns()
        assert not litter.exists()
        assert suite.warnings["tmp_pruned"] == 1

    def test_startup_prunes_quarantine(self, tmp_path, monkeypatch):
        qdir = tmp_path / "traces" / "quarantine"
        qdir.mkdir(parents=True)
        now = time.time()
        for index in range(5):
            path = qdir / ("value-old-%d.pkl" % index)
            path.write_bytes(b"damaged")
            (qdir / (path.name + ".reason.txt")).write_text("why\n")
            os.utime(path, (now - 100 + index, now - 100 + index))
        monkeypatch.setattr(checkpoint, "QUARANTINE_KEEP", 2)
        suite = Suite(_CONFIG, jobs=1, cache_dir=tmp_path)
        suite.campaigns()
        assert suite.warnings["quarantine_pruned"] == 3
        survivors = [
            p for p in qdir.iterdir()
            if not p.name.endswith(".reason.txt")
        ]
        assert len(survivors) == 2


class TestPickleRoundTrip:
    def test_campaign_result_survives_pickle(self):
        campaign = Suite(_CONFIG, jobs=1).campaign("fft")
        clone = pickle.loads(pickle.dumps(campaign))
        assert clone.workload == campaign.workload
        assert clone.sync_instances == campaign.sync_instances
        assert [r.seed for r in clone.runs] == [
            r.seed for r in campaign.runs
        ]
        assert clone.manifestation_rate == campaign.manifestation_rate


@pytest.mark.parametrize("jobs", [1, 2])
def test_aggregates_independent_of_jobs(jobs):
    suite = Suite(_CONFIG, jobs=jobs)
    rate = suite.average_problem_rate("Cord", "Ideal")
    assert 0.0 <= rate <= 1.0
