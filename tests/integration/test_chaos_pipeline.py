"""Chaos-harness integration tests: the pipeline under injected faults.

The resilience contract (``docs/resilience.md``): with any single fault
from the harness armed -- a killed worker, a hung worker, a torn store
write, a crashing accelerated path -- a campaign or sweep still
completes and produces results *bit-identical* to the fault-free run,
and everything swallowed along the way is counted or quarantined, never
silent.
"""

import pytest

from repro.detectors.epoch import EpochDetector
from repro.detectors.registry import DetectorSpec
from repro.experiments.runner import Suite, SuiteConfig
from repro.experiments.sensitivity import d_sensitivity
from repro.injection.campaign import CampaignConfig, run_campaign
from repro.resilience import faults
from repro.resilience.guard import GUARD_LOG
from repro.trace.store import PackedTraceStore
from repro.workloads import WorkloadParams
from repro.workloads.registry import get_workload

_PARAMS = WorkloadParams(scale=0.25)

_SUITE_CONFIG = SuiteConfig(
    runs_per_app=2,
    workloads=("fft", "lu"),
    params=_PARAMS,
)


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    """Each test starts disarmed with a clean degradation log."""
    for var in ("REPRO_FAULTS", "REPRO_TASK_TIMEOUT", "REPRO_MAX_RETRIES",
                "REPRO_CROSS_CHECK"):
        monkeypatch.delenv(var, raising=False)
    faults.reset()
    GUARD_LOG.clear()
    yield
    faults.reset()
    GUARD_LOG.clear()


def _sweep(trace_store=None):
    """The acceptance workload: an 8-point D sweep over one app."""
    return d_sensitivity(
        workloads=("fft",),
        runs_per_app=2,
        params=_PARAMS,
        trace_store=trace_store,
    )


def _sweep_key(result):
    return (
        tuple(result.points),
        tuple(result.problem_rates),
        tuple(result.raw_rates),
    )


@pytest.fixture(scope="module")
def baseline_sweep():
    faults.arm("")  # hard-disarm regardless of inherited state
    key = _sweep_key(_sweep())
    faults.reset()
    return key


def _suite_digest(suite):
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


@pytest.fixture(scope="module")
def baseline_suite_digest():
    faults.arm("")
    digest = _suite_digest(Suite(_SUITE_CONFIG, jobs=1))
    faults.reset()
    return digest


class TestSweepUnderChaos:
    """Faults inside the analysis ladder and the trace store."""

    def test_fused_path_fault_is_transparent(self, monkeypatch,
                                             baseline_sweep):
        monkeypatch.setenv("REPRO_FAULTS", "fused_raise:1")
        faults.arm()
        assert _sweep_key(_sweep()) == baseline_sweep
        assert GUARD_LOG.count("fused") == 1

    def test_kernel_path_fault_is_transparent(self, monkeypatch,
                                              baseline_sweep):
        # Pin the entry tier to the kernel path (no D group fuses) so
        # the fault point is actually reached, then blow up the first
        # kernel pass.
        monkeypatch.setattr("repro.cord.fused.fuse_cord_detectors",
                            lambda detectors, packed: frozenset())
        monkeypatch.setenv("REPRO_FAULTS", "kernel_raise:1")
        faults.arm()
        assert _sweep_key(_sweep()) == baseline_sweep
        assert GUARD_LOG.count("kernel") == 1

    def test_torn_store_writes_heal(self, tmp_path, baseline_sweep):
        # Sweep 1 writes with two torn writes (the chaos fault halves
        # the frame): the sizing count, then the first recording.  Its
        # analyze stage reads that recording back from the store, trips
        # over it and re-records, so its results are unaffected.
        faults.arm("store_truncate:2")
        store = PackedTraceStore(tmp_path)
        assert _sweep_key(_sweep(trace_store=store)) == baseline_sweep
        assert store.stats["quarantined"] == 1

        # Sweep 2 over the same directory trips over the torn sizing
        # count.  Each torn entry was detected, quarantined with a
        # reason file, and recomputed -- and the results are still
        # bit-identical.
        faults.arm("")
        healed = PackedTraceStore(tmp_path)
        assert _sweep_key(_sweep(trace_store=healed)) == baseline_sweep
        assert healed.stats["quarantined"] == 1
        quarantined = sorted(
            p.name for p in healed.quarantine_dir.iterdir()
        )
        entries = [n for n in quarantined if not n.endswith(".reason.txt")]
        reasons = [n for n in quarantined if n.endswith(".reason.txt")]
        assert len(entries) == 2
        assert sorted(n + ".reason.txt" for n in entries) == reasons

        # Sweep 3: the healed store serves clean hits, nothing new
        # quarantined.
        third = PackedTraceStore(tmp_path)
        assert _sweep_key(_sweep(trace_store=third)) == baseline_sweep
        assert third.stats["quarantined"] == 0


class TestSuiteFanOutUnderChaos:
    """Worker-level faults under the Suite's fan-out on the process pool."""

    def test_killed_workers_are_retried(self, monkeypatch,
                                        baseline_suite_digest):
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:1")
        faults.arm()
        suite = Suite(_SUITE_CONFIG, jobs=2)
        assert _suite_digest(suite) == baseline_suite_digest
        # Every task's first attempt died; every retry succeeded.
        tasks = len(suite.task_timings)
        assert suite.pool_counts == dict(
            pooled=tasks, inline=0, replaced=tasks, timeouts=0
        )

    def test_hung_workers_are_reaped_and_retried(self, monkeypatch,
                                                 baseline_suite_digest):
        monkeypatch.setenv("REPRO_FAULTS", "worker_stall:1:10")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.0")
        faults.arm()
        suite = Suite(_SUITE_CONFIG, jobs=2)
        assert _suite_digest(suite) == baseline_suite_digest
        # Every task's first attempt hung past its deadline.
        tasks = len(suite.task_timings)
        assert suite.pool_counts == dict(
            pooled=tasks, inline=0, replaced=tasks, timeouts=tasks
        )

    def test_fault_free_fanout_is_clean(self, baseline_suite_digest):
        suite = Suite(_SUITE_CONFIG, jobs=2)
        assert _suite_digest(suite) == baseline_suite_digest
        assert suite.task_timings
        assert suite.pool_counts == dict(
            pooled=len(suite.task_timings), inline=0, replaced=0, timeouts=0
        )


class TestCrossCheckMode:
    """REPRO_CROSS_CHECK=1: eager ladder equivalence on real campaigns."""

    #: One spec per detector family: the vector-clock oracle, the
    #: cache-limited vector scheme, the FastTrack-style epoch detector,
    #: and CORD itself.
    @staticmethod
    def _family_specs():
        from repro.detectors.registry import standard_suite, suite_by_name

        by_name = suite_by_name(standard_suite())
        return [
            by_name["Ideal"],
            by_name["InfCache"],
            DetectorSpec("Epoch", lambda n: EpochDetector(n)),
            by_name["CORD-D16"],
        ]

    def _campaign(self):
        return run_campaign(
            get_workload("fft").program_factory(_PARAMS),
            "fft",
            CampaignConfig(
                n_runs=2, detectors=self._family_specs()
            ),
        )

    def test_all_families_pass_cross_check(self, monkeypatch):
        plain = self._campaign()
        monkeypatch.setenv("REPRO_CROSS_CHECK", "1")
        checked = self._campaign()
        for a, b in zip(plain.runs, checked.runs):
            assert a.flagged == b.flagged
            assert a.problem == b.problem
