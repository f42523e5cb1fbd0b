"""Integration tests for the record-once / analyze-many pipeline.

The contract: an N-configuration sweep simulates each (workload, seed,
injection) pair exactly once, every configuration analyzes the shared
packed trace, and the reports are bit-identical to the legacy protocol
that gave every configuration its own simulations.
"""

import pytest

import repro.experiments.pipeline as pipeline_mod
import repro.injection.campaign as campaign_mod
from repro.cord import CordConfig, CordDetector, replay_trace, verify_replay
from repro.detectors.registry import DetectorSpec
from repro.experiments.runner import Suite, SuiteConfig
from repro.experiments.sensitivity import cache_sensitivity, d_sensitivity
from repro.injection.campaign import (
    CampaignConfig,
    analyze_recorded,
    record_injected_once,
    run_campaign,
    run_campaign_per_config,
)
from repro.trace.store import PackedTraceStore
from repro.workloads import WorkloadParams, get_workload

_PARAMS = WorkloadParams(scale=0.3)
_D_VALUES = (1, 8, 64)


def _factory(workload="fft", params=_PARAMS):
    return get_workload(workload).program_factory(params)


def _drive(store, config, workload="fft"):
    """One store-backed campaign on the pipeline driver, in process."""
    done = {}
    pipeline_mod.run_campaigns(
        [pipeline_mod.Campaign(workload, _PARAMS, config)],
        store, done.__setitem__,
    )
    return done[workload]


def _run_key(run):
    return (
        run.run_index,
        run.seed,
        run.target_index,
        run.injected,
        run.removed,
        run.hung,
        run.n_events,
        tuple(sorted(run.flagged.items())),
        tuple(sorted(run.problem.items())),
    )


class TestCampaignEquivalence:
    def test_shared_equals_per_config(self):
        config = CampaignConfig(n_runs=4, base_seed=11)
        shared = run_campaign(_factory(), "fft", config)
        legacy = run_campaign_per_config(_factory(), "fft", config)
        assert shared.sync_instances == legacy.sync_instances
        assert [_run_key(r) for r in shared.runs] == [
            _run_key(r) for r in legacy.runs
        ]

    def test_store_does_not_change_results(self, tmp_path):
        config = CampaignConfig(n_runs=4, base_seed=11)
        bare = run_campaign(_factory(), "fft", config)
        stored = _drive(PackedTraceStore(tmp_path), config)
        warm = _drive(PackedTraceStore(tmp_path), config)
        assert [_run_key(r) for r in bare.runs] == [
            _run_key(r) for r in stored.runs
        ]
        assert [_run_key(r) for r in bare.runs] == [
            _run_key(r) for r in warm.runs
        ]

    def test_warm_store_skips_simulation(self, tmp_path, monkeypatch):
        config = CampaignConfig(n_runs=3, base_seed=11)
        store = PackedTraceStore(tmp_path)
        cold = _drive(store, config)

        def explode(*args, **kwargs):
            raise AssertionError("warm campaign re-simulated")

        monkeypatch.setattr(campaign_mod, "run_program", explode)
        monkeypatch.setattr(
            pipeline_mod, "count_sync_instances", explode
        )
        warm = _drive(store, config)
        assert [_run_key(r) for r in cold.runs] == [
            _run_key(r) for r in warm.runs
        ]

    def test_detector_subset_shares_recordings(self, tmp_path):
        # Different detector sets must hit the same recorded traces:
        # keys depend on the run identity, never on who analyzes it.
        store = PackedTraceStore(tmp_path)
        config_full = CampaignConfig(n_runs=3, base_seed=11)
        _drive(store, config_full)
        n_files = len(list(tmp_path.iterdir()))
        config_cord = CampaignConfig(
            n_runs=3,
            base_seed=11,
            detectors=[
                DetectorSpec(
                    "Cord",
                    lambda n: CordDetector(CordConfig(), n),
                )
            ],
            check_soundness=False,
        )
        subset = _drive(store, config_cord)
        assert len(list(tmp_path.iterdir())) == n_files  # all hits
        assert len(subset.runs) == 3
        assert subset.detector_names == ["Cord"]


class TestRecordedRun:
    def test_record_then_analyze_matches_run_campaign(self):
        recorded = record_injected_once(_factory(), seed=5, target_index=0)
        result = analyze_recorded(
            recorded,
            CampaignConfig().detector_suite(),
        )
        assert result.n_events == len(recorded.packed)
        assert set(result.flagged) == {
            spec.name for spec in CampaignConfig().detector_suite()
        }

    def test_store_persists_outcomes_without_a_task(self, tmp_path,
                                                    monkeypatch):
        # The outcome bundle is written whenever a store and a switch
        # probability are given; no journal is involved.
        store = PackedTraceStore(tmp_path)
        recorded = record_injected_once(_factory(), seed=5, target_index=0)
        kwargs = dict(
            store=store, namespace="fft/bundle", switch_probability=0.1,
        )
        detectors = CampaignConfig().detector_suite()
        first = analyze_recorded(recorded, detectors, True, **kwargs)

        def no_analysis(*_args, **_kwargs):
            raise AssertionError("bundle miss: re-analyzed a stored run")

        monkeypatch.setattr(campaign_mod, "guarded_outcomes", no_analysis)
        assert analyze_recorded(recorded, detectors, True, **kwargs) == first

    def test_stored_recording_replays_identically(self, tmp_path):
        # The full offline loop: record to disk, load, re-derive the
        # order log, replay, and verify against the recorded trace.
        store = PackedTraceStore(tmp_path)
        recorded = record_injected_once(
            _factory(), seed=5, target_index=0,
            store=store, namespace="fft/replay",
        )
        loaded = record_injected_once(
            _factory(), seed=5, target_index=0,
            store=store, namespace="fft/replay",
        )
        assert loaded.packed.columns_equal(recorded.packed)
        program = _factory()(loaded.seed)
        n_threads = program.n_threads
        outcome = CordDetector(CordConfig(), n_threads).run_packed(
            loaded.packed
        )
        from repro.injection.injector import ReplayInjection

        replayed = replay_trace(
            program,
            outcome.log,
            interceptor=ReplayInjection(loaded.removed),
        )
        assert verify_replay(loaded.packed.to_trace(), replayed).equivalent


class TestSweepModes:
    def test_d_sweep_modes_identical(self):
        kwargs = dict(
            workloads=("fft",),
            d_values=_D_VALUES,
            runs_per_app=3,
            params=_PARAMS,
        )
        shared = d_sensitivity(**kwargs)
        legacy = d_sensitivity(mode="per-config", **kwargs)
        assert shared.points == legacy.points
        assert shared.problem_rates == legacy.problem_rates
        assert shared.raw_rates == legacy.raw_rates

    def test_cache_sweep_modes_identical(self):
        kwargs = dict(
            workloads=("fft",),
            cache_sizes=(4096, None),
            runs_per_app=3,
            params=_PARAMS,
        )
        shared = cache_sensitivity(**kwargs)
        legacy = cache_sensitivity(mode="per-config", **kwargs)
        assert shared.problem_rates == legacy.problem_rates
        assert shared.raw_rates == legacy.raw_rates

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            d_sensitivity(
                workloads=("fft",),
                d_values=(1,),
                runs_per_app=1,
                params=_PARAMS,
                mode="turbo",
            )

    def test_sweep_with_store_matches_and_persists(self, tmp_path):
        kwargs = dict(
            workloads=("fft",),
            d_values=_D_VALUES,
            runs_per_app=3,
            params=_PARAMS,
        )
        bare = d_sensitivity(**kwargs)
        store = PackedTraceStore(tmp_path)
        cold = d_sensitivity(trace_store=store, **kwargs)
        assert list(tmp_path.iterdir())  # recordings persisted
        warm = d_sensitivity(trace_store=store, **kwargs)
        for sweep in (cold, warm):
            assert sweep.problem_rates == bare.problem_rates
            assert sweep.raw_rates == bare.raw_rates


class TestSuiteIntegration:
    def test_suite_populates_trace_store(self, tmp_path):
        config = SuiteConfig(
            runs_per_app=2,
            workloads=("fft",),
            params=WorkloadParams(scale=0.25),
        )
        suite = Suite(config, jobs=1, cache_dir=tmp_path)
        suite.campaigns()
        store_dir = suite.trace_store_dir
        assert store_dir is not None and store_dir.is_dir()
        assert any(p.name.startswith("trace-") for p in store_dir.iterdir())

    def test_suite_without_cache_has_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        suite = Suite(
            SuiteConfig(workloads=("fft",)), jobs=1, cache_dir=None
        )
        assert suite.trace_store() is None
