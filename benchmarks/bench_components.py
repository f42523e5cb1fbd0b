"""Component micro-benchmarks: engine, detectors, codec throughput.

Not a paper figure -- these quantify the reproduction's own simulator so
users can size their campaigns (events/second per component).  Detector
and codec components are measured on both paths where both exist: the
legacy per-event-object path and the columnar packed path the record-once
pipeline uses.
"""

import time

import pytest

from repro.cord import CordConfig, CordDetector, OrderLog
from repro.detectors import IdealDetector, LimitedVectorDetector
from repro.cachesim import CacheGeometry
from repro.engine import run_program
from repro.timingsim import estimate_overhead
from repro.trace import (
    decode_packed_trace,
    encode_packed_trace,
    view_packed_trace,
)
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(scale=0.5)


@pytest.fixture(scope="module")
def trace():
    return run_program(get_workload("fmm").build(PARAMS), seed=1)


def _n_events(trace):
    return len(trace.packed)


def test_engine_throughput(benchmark, bench_log):
    program = get_workload("fmm").build(PARAMS)
    result = benchmark(
        bench_log.timed,
        "components",
        "engine",
        run_program,
        program,
        1,
        events=_n_events,
    )
    assert len(result.events) > 500


def test_cord_detector_throughput(benchmark, trace, bench_log):
    def detect():
        return CordDetector(CordConfig(), trace.n_threads).run(trace)

    outcome = benchmark(
        bench_log.timed,
        "components",
        "cord_object_path",
        detect,
        events=_n_events(trace),
    )
    assert outcome.raw_count == 0  # clean run


def test_cord_detector_packed_throughput(benchmark, trace, bench_log):
    packed = trace.packed

    def detect():
        return CordDetector(CordConfig(), trace.n_threads).run_packed(
            packed
        )

    outcome = benchmark(
        bench_log.timed,
        "components",
        "cord_packed_path",
        detect,
        events=len(packed),
    )
    assert outcome.raw_count == 0


def test_ideal_detector_throughput(benchmark, trace, bench_log):
    def detect():
        return IdealDetector(trace.n_threads).run(trace)

    outcome = benchmark(
        bench_log.timed,
        "components",
        "ideal_object_path",
        detect,
        events=_n_events(trace),
    )
    assert outcome.raw_count == 0


def test_ideal_detector_packed_throughput(benchmark, trace, bench_log):
    packed = trace.packed

    def detect():
        return IdealDetector(trace.n_threads).run_packed(packed)

    outcome = benchmark(
        bench_log.timed,
        "components",
        "ideal_packed_path",
        detect,
        events=len(packed),
    )
    assert outcome.raw_count == 0


def test_vector_detector_throughput(benchmark, trace, bench_log):
    packed = trace.packed

    def detect():
        return LimitedVectorDetector(
            trace.n_threads, CacheGeometry(32 * 1024)
        ).run_packed(packed)

    outcome = benchmark(
        bench_log.timed,
        "components",
        "vector_packed_path",
        detect,
        events=_n_events(trace),
    )
    assert outcome.raw_count == 0


def test_timing_model_throughput(benchmark, trace, bench_log):
    result = benchmark(
        bench_log.timed,
        "components",
        "timing_model",
        estimate_overhead,
        trace,
        events=_n_events(trace),
    )
    assert result.relative_time >= 1.0


def test_log_codec_throughput(benchmark, trace, bench_log):
    outcome = CordDetector(CordConfig(), trace.n_threads).run(trace)
    encoded = outcome.log.encode()

    def roundtrip():
        return OrderLog.decode(encoded)

    decoded = benchmark(
        bench_log.timed, "components", "order_log_decode", roundtrip
    )
    assert len(decoded) == len(outcome.log)


def test_trace_codec_packed_throughput(benchmark, trace, bench_log):
    packed = trace.packed

    def roundtrip():
        return decode_packed_trace(encode_packed_trace(packed))

    restored = benchmark(
        bench_log.timed,
        "components",
        "trace_codec_roundtrip",
        roundtrip,
        events=len(packed),
    )
    assert restored.columns_equal(packed)
    # The encode alone, actually timed (this entry used to report a
    # wall_s of 0.0 because the encode ran outside any timer).
    start = time.perf_counter()
    encoded = encode_packed_trace(packed)
    elapsed = time.perf_counter() - start
    bench_log.record(
        "components",
        "trace_codec_bytes_per_event",
        elapsed,
        events=len(packed),
        extra={"bytes_per_event": round(len(encoded) / len(packed), 2)},
    )


def test_trace_codec_view_throughput(benchmark, trace, bench_log):
    """Zero-copy view construction over a v3 blob: no column copies."""
    packed = trace.packed
    encoded = encode_packed_trace(packed)

    def view():
        return view_packed_trace(encoded)

    restored = benchmark(
        bench_log.timed,
        "components",
        "trace_codec_view",
        view,
        events=len(packed),
    )
    assert restored.zero_copy
    assert restored.columns_equal(packed)


def test_epoch_oracle_throughput(benchmark, trace, bench_log):
    """FastTrack-style epochs vs the full vector oracle (same verdicts)."""
    from repro.detectors import EpochDetector

    def detect():
        return EpochDetector(trace.n_threads).run(trace)

    outcome = benchmark(
        bench_log.timed,
        "components",
        "epoch_object_path",
        detect,
        events=_n_events(trace),
    )
    assert outcome.raw_count == 0


def test_analysis_kernel_timings(trace, bench_log):
    """Per-kernel wall time of the plan builders (PR 3's pre-passes).

    Each product is built once per trace and shared by every sweep
    configuration, so these are per-trace (not per-config) costs.  The
    builders are called directly -- bypassing the per-trace caches --
    to time the actual construction.
    """
    import time as _time

    from repro.cord.coherence import build_coherence_plan
    from repro.trace.kernels import (
        build_segment_plan,
        build_word_residual,
        kernel_backend,
    )

    packed = trace.packed
    probe = CordDetector(CordConfig(), trace.n_threads)
    line_mask = probe._line_mask
    set_shift = probe._set_shift
    set_mask = probe._set_mask
    capacity = probe.snoop.caches[0]._capacity

    def timed(name, fn):
        start = _time.perf_counter()
        result = fn()
        bench_log.record(
            "components",
            name,
            _time.perf_counter() - start,
            events=len(packed),
            extra={"backend": kernel_backend()},
        )
        return result

    seg_plan = timed(
        "kernel_segment_plan",
        lambda: build_segment_plan(packed, line_mask),
    )
    assert seg_plan is not None and seg_plan.n_segments > 0
    residual = timed("kernel_word_residual",
                     lambda: build_word_residual(packed))
    assert residual is not None and len(residual) <= len(packed)
    u64 = 0xFFFFFFFFFFFFFFFF
    packed._views.pop(
        ("geom", line_mask & u64, set_shift, set_mask & u64), None
    )
    timed(
        "kernel_geometry_columns",
        lambda: packed.geometry_columns(line_mask, set_shift, set_mask),
    )
    coh = timed(
        "kernel_coherence_plan",
        lambda: build_coherence_plan(
            packed,
            seg_plan,
            line_mask,
            set_shift,
            set_mask,
            capacity,
            probe.config.n_processors,
            probe.thread_proc,
        ),
    )
    assert coh.n_slots > 0
