"""Integration tests for the CORD detector's mechanism-level behavior."""

import pytest

from repro.common.errors import SimulationError
from repro.common.types import AccessClass, AccessMode
from repro.cord import CordConfig, CordDetector
from repro.cord.fused import fuse_cord_detectors
from repro.detectors import IdealDetector
from repro.engine import run_program
from repro.trace import MemoryEvent, Trace
from repro.trace.kernels import kernels_enabled

from tests.conftest import build_counter_program


def make_event(index, thread, address, write, sync, icount, value=0):
    return MemoryEvent(
        index,
        thread,
        address,
        AccessMode.WRITE if write else AccessMode.READ,
        AccessClass.SYNC if sync else AccessClass.DATA,
        icount,
        value,
    )


class TestCleanRunsAreSilent:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_no_races_on_race_free_program(self, counter_program, seed):
        trace = run_program(counter_program, seed=seed)
        for d in (1, 4, 16, 256):
            outcome = CordDetector(CordConfig(d=d), 4).run(trace)
            assert outcome.raw_count == 0

    def test_order_log_produced(self, counter_program):
        trace = run_program(counter_program, seed=1)
        outcome = CordDetector(CordConfig(), 4).run(trace)
        assert len(outcome.log) > 0
        assert outcome.log_bytes == 8 * len(outcome.log)

    def test_counters_populated(self, counter_program):
        trace = run_program(counter_program, seed=1)
        outcome = CordDetector(CordConfig(), 4).run(trace)
        for key in (
            "race_checks",
            "fast_hits",
            "memts_update_broadcasts",
            "clock_changes",
            "log_entries",
        ):
            assert key in outcome.counters


class TestCheckFilters:
    def test_private_data_uses_fast_path(self):
        # One thread repeatedly touching private lines: after the first
        # (cold) check per line the filter bits make every later access
        # a fast hit.
        detector = CordDetector(CordConfig(), 2)
        index = 0
        for round_index in range(4):
            for line in range(8):
                for word in range(4):
                    detector.process(
                        make_event(
                            index, 0, 0x100000 + line * 64 + word * 4,
                            write=True, sync=False, icount=index,
                        )
                    )
                    index += 1
        # 8 cold checks (one per line), everything else filtered.
        assert detector.race_checks == 8
        assert detector.fast_hits == index - 8

    def test_remote_access_revokes_filter(self):
        detector = CordDetector(CordConfig(), 2)
        address = 0x100000
        detector.process(make_event(0, 0, address, True, False, 0))
        assert detector.race_checks == 1
        # Thread 1 writes the line: revokes thread 0's filters and
        # invalidates its copy.
        detector.process(make_event(1, 1, address, True, False, 0))
        # Thread 0 writes again: must re-check (miss + no filter).
        detector.process(make_event(2, 0, address, True, False, 1))
        assert detector.race_checks == 3

    def test_own_clock_increment_invalidates_filter(self):
        # Regression for stale check-filter bits: thread 0 earns a filter
        # on a data line, then its clock moves (sync-write increment).
        # The next access to the filtered line must race-check again --
        # it is recorded at the new clock, so it needs the ordering
        # comparisons a filtered access skips.
        detector = CordDetector(CordConfig(), 2)
        data = 0x100000
        sync = 0x8000000
        detector.process(make_event(0, 0, data, True, False, 0))
        assert detector.race_checks == 1
        clock_before = detector.clocks[0]
        detector.process(make_event(1, 0, sync, True, True, 1))
        assert detector.clocks[0] == clock_before + 1
        detector.process(make_event(2, 0, data, True, False, 2))
        assert detector.race_checks == 3
        assert detector.fast_hits == 0
        # At the *same* clock the filter still short-circuits checks.
        detector.process(make_event(3, 0, data, False, False, 3))
        assert detector.race_checks == 3
        assert detector.fast_hits == 1


class TestSyncChains:
    def test_lock_chain_gives_full_window(self):
        detector = CordDetector(CordConfig(d=16), 2)
        lock = 0x8000000
        data = 0x100000
        events = [
            make_event(0, 0, data, True, False, 0),    # A writes data
            make_event(1, 0, lock, True, True, 1),     # A releases
            make_event(2, 1, lock, False, True, 0),    # B acquires
            make_event(3, 1, data, False, False, 1),   # B reads data
        ]
        for event in events:
            detector.process(event)
        assert detector.outcome.raw_count == 0
        # B's clock is at least D past the release timestamp.
        assert detector.clocks[1] >= detector.clocks[0] + 15

    def test_unsynchronized_conflict_reported_once_per_access(self):
        detector = CordDetector(CordConfig(d=16), 3)
        data = 0x100000
        detector.process(make_event(0, 0, data, True, False, 0))
        detector.process(make_event(1, 1, data, True, False, 0))
        detector.process(make_event(2, 2, data, False, False, 0))
        # Each racy access is flagged once even with two candidates.
        assert detector.outcome.raw_count == 2
        assert len(detector.outcome.flagged) == 2


class TestMigration:
    def test_self_race_without_fix(self):
        # Move a thread without the +D increment (simulated by migrating
        # with d=1-like behavior is not possible through the API -- the
        # API always applies the fix -- so instead verify the fix works).
        detector = CordDetector(CordConfig(d=16), 2)
        data = 0x100000
        detector.process(make_event(0, 0, data, True, False, 0))
        before = detector.clocks[0]
        detector.migrate_thread(0, 1, icount=1)
        assert detector.clocks[0] == before + 16
        # The thread's next access on the new processor snoops its own
        # stale entry on processor 0 but is "synchronized" past it.
        detector.process(make_event(1, 0, data, False, False, 1))
        assert detector.outcome.raw_count == 0

    def test_migration_is_logged(self):
        detector = CordDetector(CordConfig(d=16), 2)
        detector.migrate_thread(0, 1, icount=0)
        assert any(
            entry.thread == 0 for entry in detector.recorder.log.entries
        )

    def test_migration_to_unknown_processor_rejected(self):
        detector = CordDetector(CordConfig(d=16), 2)
        with pytest.raises(ValueError):
            detector.migrate_thread(0, 99, icount=0)

    @pytest.mark.parametrize("thread", [-1, 2, 99])
    def test_migration_of_unknown_thread_rejected(self, thread):
        # -1 would otherwise re-pin the last thread through negative
        # indexing; the detector must be left untouched.
        detector = CordDetector(CordConfig(d=16), 2)
        with pytest.raises(ValueError):
            detector.migrate_thread(thread, 1, icount=0)
        assert detector.thread_proc == [0, 1]
        assert detector.clocks == [CordConfig().initial_clock] * 2
        assert detector.recorder.log.entries == []


class TestSoundnessOnRandomPrograms:
    @pytest.mark.parametrize("seed", range(6))
    def test_run_level_soundness_with_injection(self, seed):
        from repro.injection import InjectionInterceptor

        program = build_counter_program(rounds=3)
        interceptor = InjectionInterceptor(seed * 3 % 20)
        trace = run_program(program, seed=seed, interceptor=interceptor)
        ideal = IdealDetector(4).run(trace)
        for d in (1, 16):
            outcome = CordDetector(CordConfig(d=d), 4).run(trace)
            # A CORD report implies the run really contains races.
            if outcome.problem_detected:
                assert ideal.problem_detected


class TestWindowMode:
    def test_window_mode_runs_walkers(self, counter_program):
        trace = run_program(counter_program, seed=1)
        config = CordConfig(
            use_window=True, walker_period=50, walker_stale_lag=2048
        )
        detector = CordDetector(config, 4)
        outcome = detector.run(trace)
        assert outcome.counters["window_violations"] == 0
        assert any(w.walks > 0 for w in detector._walkers)

    def test_window_mode_same_detections(self, counter_program):
        trace = run_program(counter_program, seed=1)
        plain = CordDetector(CordConfig(), 4).run(trace)
        windowed = CordDetector(
            CordConfig(use_window=True, walker_period=64,
                       walker_stale_lag=4096), 4,
        ).run(trace)
        assert plain.flagged == windowed.flagged


@pytest.mark.skipif(
    not kernels_enabled(),
    reason="numpy kernels unavailable: no plan-driven pass to spend",
)
class TestSpentDetector:
    """A plan-driven pass leaves no live cache model behind, so a
    detector that ran one refuses further events instead of continuing
    from an empty cache model (which silently under-counts checks)."""

    @staticmethod
    def _trace():
        program = build_counter_program(rounds=3)
        return run_program(program, seed=11)

    @staticmethod
    def _assert_refuses_more(detector, trace):
        event = trace.events[-1]
        with pytest.raises(SimulationError, match="fresh detector"):
            detector.process(event)
        with pytest.raises(SimulationError, match="fresh detector"):
            detector.process_batch(trace.events[-5:])
        with pytest.raises(SimulationError, match="fresh detector"):
            detector.process_packed(trace.packed)

    def test_kernel_pass_spends_detector(self):
        trace = self._trace()
        detector = CordDetector(CordConfig(d=16), 4)
        detector.process_packed(trace.packed)
        assert detector._kernel_spent  # the kernel ran
        counters = (detector.race_checks, detector.fast_hits)
        self._assert_refuses_more(detector, trace)
        assert (detector.race_checks, detector.fast_hits) == counters
        # The pass itself still finishes to the reference outcome.
        reference = CordDetector(CordConfig(d=16), 4).run(trace)
        assert detector.finish(trace).flagged == reference.flagged

    def test_fused_pass_spends_detectors(self):
        trace = self._trace()
        detectors = [
            CordDetector(CordConfig(d=d), 4) for d in (4, 16, 64)
        ]
        fused = fuse_cord_detectors(detectors, trace.packed)
        assert fused == {id(det) for det in detectors}
        for detector in detectors:
            self._assert_refuses_more(detector, trace)
