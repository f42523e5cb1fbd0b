"""Unit tests for the resilience stack: faults, supervisor, guard, store.

The integration-level proof that the whole pipeline survives injected
faults lives in ``tests/integration/test_chaos_pipeline.py``; these
tests pin the individual mechanisms.
"""

import logging
import os
import pickle
import time

import pytest

from repro.common.errors import (
    DegradedPathError,
    PipelineError,
    StoreCorruptError,
)
from repro.cord.config import CordConfig
from repro.cord.detector import CordDetector
from repro.detectors.base import Detector
from repro.detectors.registry import DetectorSpec
from repro.engine.executor import run_program
from repro.resilience import faults
from repro.resilience.guard import (
    GuardLog,
    compute_outcomes,
    verify_ladder_equivalence,
)
from repro.resilience.checkpoint import GracefulShutdown
from repro.resilience.supervisor import Supervisor
from repro.trace.store import (
    PackedTraceStore,
    frame_payload,
    unframe_payload,
)

from tests.conftest import build_counter_program


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    """Every test starts and ends with no faults armed."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_STALL_SECONDS", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    faults.reset()
    yield
    faults.reset()


# -- fault registry -----------------------------------------------------------


class TestFaults:
    def test_disarmed_by_default(self):
        assert not faults.active()
        assert not faults.fire("fused_raise")
        assert not faults.should_fire("worker_kill", 0)

    def test_charges_consumed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fused_raise:2")
        faults.arm()
        assert faults.active()
        assert faults.fire("fused_raise")
        assert faults.fire("fused_raise")
        assert not faults.fire("fused_raise")  # budget spent
        assert not faults.fire("other_fault")

    def test_attempt_gated_is_non_consuming(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:2")
        faults.arm()
        for _ in range(5):  # any number of fresh workers agree
            assert faults.should_fire("worker_kill", 0)
            assert faults.should_fire("worker_kill", 1)
            assert not faults.should_fire("worker_kill", 2)

    def test_spec_parsing_is_forgiving(self):
        faults.arm("a, b:3 ,, c:x, :7")
        assert faults.should_fire("a", 0) and not faults.should_fire("a", 1)
        assert faults.should_fire("b", 2)
        assert faults.should_fire("c", 0)  # malformed count -> 1

    def test_default_charge_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store_truncate")
        faults.arm()
        assert faults.fire("store_truncate")
        assert not faults.fire("store_truncate")


# -- supervisor ---------------------------------------------------------------


def _square(payload):
    return payload * payload


def _boom(payload):
    raise ValueError("deterministic task failure %r" % (payload,))


_TASKS = [("a", 2), ("b", 3), ("c", 4)]


class TestSupervisor:
    def test_happy_path(self):
        results, report = Supervisor(2).run_stream(_square, _TASKS)
        assert results == {"a": 4, "b": 9, "c": 16}
        assert report.ok and not report.degraded
        assert [out.name for out in report.outcomes] == ["a", "b", "c"]
        assert all(out.clean for out in report.outcomes)

    def test_worker_kill_is_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:1")
        faults.arm()
        results, report = Supervisor(2).run_stream(_square, _TASKS)
        assert results == {"a": 4, "b": 9, "c": 16}
        assert report.ok and report.degraded
        for out in report.outcomes:
            assert out.attempts == 2
            assert out.path == "pool-retry"
            assert "died" in out.errors[0]

    def test_hung_worker_hits_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_stall:1")
        monkeypatch.setenv("REPRO_FAULT_STALL_SECONDS", "30")
        faults.arm()
        results, report = Supervisor(2, timeout=1.0).run_stream(
            _square, [("a", 2), ("b", 3)]
        )
        assert results == {"a": 4, "b": 9}
        assert report.ok and report.degraded
        for out in report.outcomes:
            assert "WorkerTimeoutError" in out.errors[0]
            assert out.path == "pool-retry"

    def test_exhausted_retries_fall_back_to_serial(self, monkeypatch):
        # Kill every pool attempt: the task must still complete, in
        # process, on the serial rung.
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:99")
        faults.arm()
        results, report = Supervisor(2, max_retries=1).run_stream(
            _square, [("a", 5), ("b", 6)]
        )
        assert results == {"a": 25, "b": 36}
        assert [out.name for out in report.outcomes] == ["a", "b"]
        for out in report.outcomes:
            assert out.ok and out.path == "serial"
            assert out.attempts == 3  # two pool attempts + serial
            assert len(out.errors) == 2

    def test_task_exception_is_not_retried(self):
        with pytest.raises(PipelineError) as excinfo:
            Supervisor(2).run_stream(_boom, [("a", 1), ("b", 2)])
        report = excinfo.value.report
        assert not report.ok
        assert all(out.status == "failed" for out in report.outcomes)
        assert all(out.attempts == 1 for out in report.outcomes)
        assert "ValueError" in report.outcomes[0].errors[0]

    def test_failure_report_lists_tasks(self):
        with pytest.raises(PipelineError) as excinfo:
            Supervisor(2).run_stream(_boom, [("only", 1)])
        assert "only" in str(excinfo.value)

    def test_hung_workers_reaped_promptly_under_shutdown_handler(
        self, monkeypatch, capfd
    ):
        # Forked children inherit the parent's GracefulShutdown handler;
        # unless they reset it, terminate() only logs a drain request in
        # the child and each reap waits out its join before kill().
        monkeypatch.setenv("REPRO_FAULTS", "worker_stall:1")
        monkeypatch.setenv("REPRO_FAULT_STALL_SECONDS", "30")
        faults.arm()
        tasks = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
        # pytest captures log records in memory, so route the drain
        # handler's warning to the (fd-captured) stderr a child shares.
        handler = logging.StreamHandler()
        drain_logger = logging.getLogger("repro.resilience.checkpoint")
        drain_logger.addHandler(handler)
        start = time.monotonic()
        try:
            with GracefulShutdown():
                results, report = Supervisor(2, timeout=0.5).run_stream(
                    _square, tasks
                )
        finally:
            elapsed = time.monotonic() - start
            drain_logger.removeHandler(handler)
        assert results == {"a": 1, "b": 4, "c": 9, "d": 16}
        assert all(out.path == "pool-retry" for out in report.outcomes)
        assert elapsed < 2.5
        assert "received signal" not in capfd.readouterr().err

    def test_deterministic_backoff(self):
        a = Supervisor(2, seed=7)._backoff("fft", 1)
        b = Supervisor(2, seed=7)._backoff("fft", 1)
        c = Supervisor(2, seed=8)._backoff("fft", 1)
        assert a == b
        assert a != c


# -- degradation ladder -------------------------------------------------------


def _packed_trace():
    return run_program(build_counter_program(), seed=13).packed


def _cord_specs():
    def spec(name, d):
        return DetectorSpec(
            name,
            lambda n, d=d: CordDetector(CordConfig(d=d), n),
        )

    return [spec("CORD-D%d" % d, d) for d in (4, 8, 16, 32)]


class _AlwaysBoom(Detector):
    name = "Boom"

    def process(self, event):
        raise RuntimeError("broken on every tier")


class TestGuard:
    def test_happy_path_matches_unguarded(self):
        packed = _packed_trace()
        log = GuardLog()
        outcomes = compute_outcomes(_cord_specs(), 4, packed,
                                    guard_log=log)
        baseline = {
            spec.name: spec.build(4).run_packed(packed)
            for spec in _cord_specs()
        }
        assert log.count() == 0
        for name, outcome in baseline.items():
            assert outcomes[name].flagged == outcome.flagged
            assert outcomes[name].counters == outcome.counters

    def test_fused_failure_degrades_to_kernel(self, monkeypatch):
        packed = _packed_trace()
        baseline = compute_outcomes(_cord_specs(), 4, packed)
        monkeypatch.setenv("REPRO_FAULTS", "fused_raise:1")
        faults.arm()
        log = GuardLog()
        outcomes = compute_outcomes(_cord_specs(), 4, packed,
                                    guard_log=log)
        assert log.count("fused") == 1
        for name in baseline:
            assert outcomes[name].flagged == baseline[name].flagged
            assert outcomes[name].counters == baseline[name].counters

    def test_kernel_failure_degrades_to_scalar(self, monkeypatch):
        packed = _packed_trace()
        baseline = compute_outcomes(_cord_specs(), 4, packed)
        # Disable fusion so the kernel tier actually runs per config,
        # then blow up the first kernel pass.
        monkeypatch.setenv("REPRO_NO_FUSED", "1")
        monkeypatch.setenv("REPRO_FAULTS", "kernel_raise:1")
        faults.arm()
        log = GuardLog()
        outcomes = compute_outcomes(_cord_specs(), 4, packed,
                                    guard_log=log)
        assert log.count("kernel") == 1
        for name in baseline:
            assert outcomes[name].flagged == baseline[name].flagged
            assert outcomes[name].counters == baseline[name].counters

    def test_all_tiers_broken_raises_degraded_path_error(self):
        packed = _packed_trace()
        specs = [DetectorSpec("Boom", lambda n: _AlwaysBoom())]
        with pytest.raises(DegradedPathError):
            compute_outcomes(specs, 4, packed)

    def test_cross_check_passes_on_healthy_paths(self):
        packed = _packed_trace()
        specs = _cord_specs()
        outcomes = compute_outcomes(specs, 4, packed)
        verify_ladder_equivalence(specs, 4, packed, outcomes)

    def test_cross_check_catches_divergence(self):
        packed = _packed_trace()
        specs = _cord_specs()
        outcomes = compute_outcomes(specs, 4, packed)
        # Tamper with one report: the cross-check must notice.
        outcomes[specs[0].name].flagged.add((3, 999999))
        with pytest.raises(PipelineError):
            verify_ladder_equivalence(specs, 4, packed, outcomes)


# -- store framing and quarantine ---------------------------------------------


class TestStoreFraming:
    def test_roundtrip(self):
        payload = os.urandom(257)
        assert unframe_payload(frame_payload(payload)) == payload

    def test_every_bit_flip_detected(self):
        framed = frame_payload(b"the payload under test")
        for offset in range(len(framed)):
            for bit in (0x01, 0x80):
                bad = bytearray(framed)
                bad[offset] ^= bit
                with pytest.raises(StoreCorruptError):
                    unframe_payload(bytes(bad))

    def test_every_truncation_detected(self):
        framed = frame_payload(b"the payload under test")
        for cut in range(len(framed)):
            with pytest.raises(StoreCorruptError):
                unframe_payload(framed[:cut])

    def test_extension_detected(self):
        framed = frame_payload(b"payload")
        with pytest.raises(StoreCorruptError):
            unframe_payload(framed + b"\x00")


class TestStoreQuarantine:
    def _store_with_entry(self, tmp_path):
        store = PackedTraceStore(tmp_path)
        store.store_value("ns", ("k",), {"v": 1})
        return store, store._path("value", "ns", ("k",))

    def test_corrupt_value_quarantined_with_reason(self, tmp_path):
        store, path = self._store_with_entry(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.load_value("ns", ("k",)) is None
        assert store.stats["quarantined"] == 1
        assert not path.exists()
        moved = store.quarantine_dir / path.name
        reason = store.quarantine_dir / (path.name + ".reason.txt")
        assert moved.exists()
        assert reason.exists()
        assert "checksum" in reason.read_text()

    def test_truncated_value_quarantined(self, tmp_path):
        store, path = self._store_with_entry(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        assert store.load_value("ns", ("k",)) is None
        assert store.stats["quarantined"] == 1
        assert "torn write" in (
            store.quarantine_dir / (path.name + ".reason.txt")
        ).read_text()

    def test_healed_entry_reloads(self, tmp_path):
        store, path = self._store_with_entry(tmp_path)
        path.write_bytes(b"garbage")
        assert store.load_value("ns", ("k",)) is None
        # Re-store (what record_injected_once does on the miss) and the
        # key serves again.
        store.store_value("ns", ("k",), {"v": 1})
        assert store.load_value("ns", ("k",)) == {"v": 1}

    def test_stale_pickle_counts_not_quarantines(self, tmp_path):
        store = PackedTraceStore(tmp_path)
        path = store._path("value", "ns", ("k",))
        path.parent.mkdir(parents=True, exist_ok=True)
        # A healthy frame around bytes that no longer unpickle: version
        # skew, not corruption.
        path.write_bytes(frame_payload(b"\x80\x04."))
        assert store.load_value("ns", ("k",)) is None
        assert store.stats["stale"] == 1
        assert store.stats["quarantined"] == 0

    def test_torn_write_fault_point(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store_truncate:1")
        faults.arm()
        store = PackedTraceStore(tmp_path)
        store.store_value("ns", ("k",), 42)  # torn by the fault
        assert store.load_value("ns", ("k",)) is None
        assert store.stats["quarantined"] == 1
        store.store_value("ns", ("k",), 42)  # charge spent: healthy
        assert store.load_value("ns", ("k",)) == 42
