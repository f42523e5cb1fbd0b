"""Property tests: kernel-accelerated analysis is byte-identical.

PR 3's vectorized kernels (:mod:`repro.trace.kernels`), the plan-driven
CORD interpreter, and the interval-fused sweep pass
(:mod:`repro.cord.fused`) are all pure accelerations: every observable
output -- race reports (including detail strings), order logs, final
clocks, and the hot-path counters the figures consume -- must equal the
scalar reference paths bit for bit.  These properties pin that contract
on hypothesis-generated racy programs and on golden workloads:

* **kernel vs scalar packed** -- ``run_packed`` with the numpy plans
  active equals ``run_packed`` under ``REPRO_NO_NUMPY=1`` (the
  pure-python fallback) for all four detector families;
* **packed vs row-major** -- both equal the per-event-object
  ``process_batch`` path (``run``);
* **fused vs per-config** -- detectors the interval-fused sweep pass
  materializes equal the same configurations interpreted concretely,
  and nothing fuses without the numpy plans;
* **16-bit clock wraparound** -- the equivalences hold for window-mode
  configurations whose clocks actually wrap the hardware width, and for
  unbounded clocks started beyond 2^16.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.cachesim.cache import CacheGeometry
from repro.cord import CordConfig, CordDetector
from repro.cord.fused import fuse_cord_detectors
from repro.detectors import IdealDetector, LimitedVectorDetector
from repro.detectors.epoch import EpochDetector
from repro.engine import run_program
from repro.trace.kernels import NO_NUMPY_ENV, kernels_enabled
from repro.workloads import WorkloadParams, get_workload

from tests.property.test_prop_system import build_program, programs, seeds

# Without the numpy arms every equivalence here is vacuous; skip -- and
# CI's bench-smoke job (a numpy environment) fails if this suite skips.
pytestmark = pytest.mark.skipif(
    not kernels_enabled(),
    reason="numpy kernels unavailable (fallback-only environment)",
)

D_SWEEP = (1, 2, 4, 8, 16, 32, 64, 256)


@contextmanager
def scalar_fallback():
    """Force the pure-python packed paths for the duration."""
    saved = os.environ.get(NO_NUMPY_ENV)
    os.environ[NO_NUMPY_ENV] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(NO_NUMPY_ENV, None)
        else:
            os.environ[NO_NUMPY_ENV] = saved


def outcome_sig(outcome):
    """Everything observable about an outcome, as comparable values."""
    sig = {
        "flagged": sorted(outcome.flagged),
        "races": [
            (r.access, r.address, r.other_thread, r.detail)
            for r in outcome.races
        ],
        "counters": dict(outcome.counters),
    }
    log = getattr(outcome, "log", None)
    if log is not None:
        sig["log"] = [(e.clock, e.thread, e.count) for e in log]
    clocks = getattr(outcome, "final_clocks", None)
    if clocks is not None:
        sig["final_clocks"] = list(clocks)
    return sig


def _families(n_threads, **cord_kwargs):
    """One builder per detector family (fresh instance per call)."""
    return [
        lambda: CordDetector(CordConfig(d=16, **cord_kwargs), n_threads),
        lambda: CordDetector(
            CordConfig(d=4, cache_size=None, **cord_kwargs), n_threads
        ),
        lambda: IdealDetector(n_threads),
        lambda: EpochDetector(n_threads),
        lambda: LimitedVectorDetector(n_threads, CacheGeometry.infinite()),
    ]


def _assert_three_arms_agree(build, trace):
    """kernel run_packed == scalar run_packed == row-major run."""
    kernel = outcome_sig(build().run_packed(trace.packed))
    with scalar_fallback():
        scalar = outcome_sig(build().run_packed(trace.packed))
    row_major = outcome_sig(build().run(trace))
    assert kernel == scalar
    assert kernel == row_major


# -- kernel vs scalar vs row-major, all families ----------------------------


@settings(max_examples=30, deadline=None)
@given(programs, seeds)
def test_kernel_paths_equivalent_all_families(thread_actions, seed):
    program = build_program(thread_actions)
    trace = run_program(program, seed=seed)
    for build in _families(program.n_threads):
        _assert_three_arms_agree(build, trace)


def test_kernel_paths_equivalent_golden_workloads():
    for workload in ("fft", "ocean", "fmm"):
        program = get_workload(workload).build(WorkloadParams(scale=0.4))
        trace = run_program(program, seed=11)
        for build in _families(program.n_threads):
            _assert_three_arms_agree(build, trace)


# -- 16-bit clock wraparound ------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(programs, seeds)
def test_window_mode_paths_equivalent(thread_actions, seed):
    """Window-mode (16-bit comparator) configs: packed == row-major.

    Window mode runs cache walkers, so the plan-driven kernel is not
    eligible; this pins that the dispatch falls back correctly and the
    scalar packed loop matches the object path under truncation.
    """
    program = build_program(thread_actions)
    trace = run_program(program, seed=seed)
    build = lambda: CordDetector(
        CordConfig(d=4, use_window=True, initial_clock=(1 << 16) - 8),
        program.n_threads,
    )
    _assert_three_arms_agree(build, trace)


def test_wraparound_equivalence_with_real_wrap():
    """Clocks genuinely cross the 16-bit boundary and outputs still match."""
    program = get_workload("fft").build(WorkloadParams(scale=0.4))
    trace = run_program(program, seed=11)
    start = (1 << 16) - 4

    windowed = CordDetector(
        CordConfig(d=4, use_window=True, initial_clock=start),
        program.n_threads,
    )
    windowed_outcome = windowed.run_packed(trace.packed)
    assert max(windowed.clocks) >= 1 << 16, "wrap never exercised"
    with scalar_fallback():
        scalar = CordDetector(
            CordConfig(d=4, use_window=True, initial_clock=start),
            program.n_threads,
        ).run_packed(trace.packed)
    assert outcome_sig(windowed_outcome) == outcome_sig(scalar)

    # Unbounded clocks past 2^16 flow through the kernel (and its plans)
    # unchanged: the plan-driven interpreter must not care about width.
    build = lambda: CordDetector(
        CordConfig(d=16, initial_clock=start), program.n_threads
    )
    _assert_three_arms_agree(build, trace)


# -- interval-fused sweeps --------------------------------------------------


def _sweep_sigs_fused(trace, n_threads, **cord_kwargs):
    dets = [
        CordDetector(CordConfig(d=d, **cord_kwargs), n_threads)
        for d in D_SWEEP
    ]
    fused = fuse_cord_detectors(dets, trace.packed)
    sigs = []
    for det in dets:
        if id(det) not in fused:
            det.process_packed(trace.packed)
        sigs.append(outcome_sig(det.finish(trace.packed)))
    return sigs, len(fused)


def _sweep_sigs_concrete(trace, n_threads, **cord_kwargs):
    return [
        outcome_sig(
            CordDetector(
                CordConfig(d=d, **cord_kwargs), n_threads
            ).run_packed(trace.packed)
        )
        for d in D_SWEEP
    ]


@settings(max_examples=30, deadline=None)
@given(programs, seeds)
def test_fused_sweep_equivalent_generated(thread_actions, seed):
    program = build_program(thread_actions)
    trace = run_program(program, seed=seed)
    fused_sigs, _ = _sweep_sigs_fused(trace, program.n_threads)
    concrete_sigs = _sweep_sigs_concrete(trace, program.n_threads)
    assert fused_sigs == concrete_sigs


def test_fused_sweep_equivalent_golden():
    fused_any = 0
    for workload in ("fft", "ocean", "fmm"):
        program = get_workload(workload).build(WorkloadParams(scale=0.4))
        trace = run_program(program, seed=11)
        fused_sigs, n_fused = _sweep_sigs_fused(trace, program.n_threads)
        fused_any += n_fused
        assert fused_sigs == _sweep_sigs_concrete(
            trace, program.n_threads
        )
    # The property is vacuous if the ladder never fuses anything real.
    assert fused_any > 0, "no golden sweep produced a fused suffix"


def test_fused_respects_escape_hatches():
    program = get_workload("fft").build(WorkloadParams(scale=0.4))
    trace = run_program(program, seed=11)
    dets = [
        CordDetector(CordConfig(d=d), program.n_threads) for d in D_SWEEP
    ]
    # Fusion requires the kernels (the fused pass interprets the same
    # plans); under the no-numpy hatch nothing is fused.
    with scalar_fallback():
        assert fuse_cord_detectors(dets, trace.packed) == frozenset()
