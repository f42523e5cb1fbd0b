"""Property tests: batched multi-run analysis is byte-identical.

The run-level pipeline's analyze stage stacks several same-geometry
recorded runs into one arena and primes their kernel products with one
batched pass (:func:`repro.resilience.guard.compute_outcomes_batch` over
:mod:`repro.trace.kernels`' ``build_batched_*`` builders).  The batch
tier is *pure preparation* -- cache seeding plus a shared fused-sweep
threshold memo -- so every observable outcome must equal the per-run
path bit for bit, for all four detector families, whatever the batch
composition, and on the no-numpy scalar fallback (where the batch tier
is a no-op by construction).  These properties pin that contract on
hypothesis-generated racy programs and golden workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.registry import standard_suite
from repro.engine import run_program
from repro.resilience.guard import (
    GuardLog,
    compute_outcomes,
    compute_outcomes_batch,
    guarded_outcomes_batch,
)
from repro.trace.kernels import (
    NO_NUMPY_ENV,
    build_batched_segment_plans,
    build_batched_word_residuals,
    build_segment_plan,
    build_word_residual,
    kernels_enabled,
)
from repro.workloads import WorkloadParams, get_workload

from tests.property.test_prop_system import build_program, programs, seeds

LINE_MASK = ~(64 - 1)


def _specs():
    # All four families: Ideal (word residual), LimitedVector infinite
    # and finite, and CORD (segment plans).
    return standard_suite()


def _traces(count, base_seed=11):
    out = []
    for i in range(count):
        program = get_workload("fft" if i % 2 else "lu").build(
            WorkloadParams(scale=0.25)
        )
        trace = run_program(program, seed=base_seed + i)
        out.append((program.n_threads, trace.packed))
    return out


def _assert_outcome_maps_identical(per_run, batched):
    assert per_run.keys() == batched.keys()
    for name in per_run:
        a, b = per_run[name], batched[name]
        assert a.flagged == b.flagged, name
        assert a.raw_count == b.raw_count, name
        assert a.problem_detected == b.problem_detected, name
        assert dict(a.counters) == dict(b.counters), name


# -- batched analysis = per-run analysis -------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(programs, seeds), min_size=1, max_size=4))
def test_batched_equals_per_run_on_generated_programs(cases):
    items = []
    for thread_actions, seed in cases:
        program = build_program(thread_actions)
        trace = run_program(program, seed=seed)
        items.append((_specs(), program.n_threads, trace.packed))
    per_run = [
        compute_outcomes(specs, n, packed) for specs, n, packed in items
    ]
    batched = compute_outcomes_batch(
        [(specs, n, packed) for specs, n, packed in items]
    )
    for expected, got in zip(per_run, batched):
        _assert_outcome_maps_identical(expected, got)


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_batched_equals_per_run_on_golden_workloads(batch):
    traces = _traces(batch)
    items = [(_specs(), n, packed) for n, packed in traces]
    per_run = [compute_outcomes(*item) for item in items]
    for expected, got in zip(per_run, compute_outcomes_batch(items)):
        _assert_outcome_maps_identical(expected, got)


def test_batch_composition_does_not_change_outcomes():
    # Analyzing a run alone, or stacked with different neighbours, must
    # yield the same bytes -- the resume path depends on it (a drained
    # run re-analyzes in a differently-shaped batch).
    traces = _traces(3)
    target = (_specs(), traces[0][0], traces[0][1])
    alone = compute_outcomes_batch([target])[0]
    with_one = compute_outcomes_batch(
        [target, (_specs(), traces[1][0], traces[1][1])]
    )[0]
    with_two = compute_outcomes_batch(
        [(_specs(), traces[2][0], traces[2][1]), target]
    )[1]
    _assert_outcome_maps_identical(alone, with_one)
    _assert_outcome_maps_identical(alone, with_two)


def test_guarded_batch_equals_unguarded(monkeypatch):
    traces = _traces(2)
    items = [(_specs(), n, packed) for n, packed in traces]
    log = GuardLog()
    for expected, got in zip(
        compute_outcomes_batch(items),
        guarded_outcomes_batch(items, guard_log=log),
    ):
        _assert_outcome_maps_identical(expected, got)
    assert not log.events


def test_batched_equals_per_run_without_numpy(monkeypatch):
    # Scalar fallback: the batch tier gates itself off (kernels_enabled
    # is False) and the per-item path runs the pure-python loops.
    traces = _traces(2)
    expected = [
        compute_outcomes(_specs(), n, packed) for n, packed in traces
    ]
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    got = compute_outcomes_batch(
        [(_specs(), n, packed) for n, packed in traces]
    )
    for want, have in zip(expected, got):
        _assert_outcome_maps_identical(want, have)


def test_fused_hints_do_not_change_outcomes():
    # The shared threshold memo is cost policy only: seeding it with
    # whatever a previous batch learned must not change any outcome.
    n, packed = _traces(1)[0]
    baseline = compute_outcomes(_specs(), n, packed)
    hints = {}
    first = compute_outcomes(_specs(), n, packed, fused_hints=hints)
    _assert_outcome_maps_identical(baseline, first)
    # Second pass re-uses the learned thresholds.
    second = compute_outcomes(_specs(), n, packed, fused_hints=hints)
    _assert_outcome_maps_identical(baseline, second)


# -- batched builders = per-run builders (seed-helper identity) --------------


def _assert_plan_identical(mine, ref):
    assert mine.starts == ref.starts
    assert mine.sync == ref.sync
    assert mine.read_masks == ref.read_masks
    assert mine.write_masks == ref.write_masks


def _assert_residual_identical(mine, ref):
    assert list(mine.threads) == list(ref.threads)
    assert list(mine.addresses) == list(ref.addresses)
    assert list(mine.flags) == list(ref.flags)
    assert list(mine.icounts) == list(ref.icounts)
    assert mine.skipped_events == ref.skipped_events
    assert mine.skipped_reads == ref.skipped_reads


@pytest.mark.skipif(not kernels_enabled(), reason="numpy unavailable")
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(programs, seeds), min_size=1, max_size=4))
def test_batched_builders_equal_per_run_builders(cases):
    packeds = []
    for thread_actions, seed in cases:
        program = build_program(thread_actions)
        packeds.append(run_program(program, seed=seed).packed)

    plans = build_batched_segment_plans(packeds, LINE_MASK)
    words = build_batched_word_residuals(packeds)
    assert plans is not None and words is not None
    assert len(plans) == len(words) == len(packeds)

    for packed, plan, word in zip(packeds, plans, words):
        _assert_plan_identical(plan, build_segment_plan(packed, LINE_MASK))
        _assert_residual_identical(word, build_word_residual(packed))


@pytest.mark.skipif(not kernels_enabled(), reason="numpy unavailable")
def test_batched_builders_handle_empty_and_mixed_runs():
    # A batch mixing a trivial (possibly sync-only) trace with real
    # workloads must still split per run exactly.
    packeds = [packed for _n, packed in _traces(2)]
    tiny = build_program([[("data", 0, False)], [("compute", 1, 0)]])
    packeds.insert(1, run_program(tiny, seed=3).packed)
    plans = build_batched_segment_plans(packeds, LINE_MASK)
    for packed, plan in zip(packeds, plans):
        _assert_plan_identical(plan, build_segment_plan(packed, LINE_MASK))
