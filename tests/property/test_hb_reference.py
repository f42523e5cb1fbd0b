"""An independent happens-before reference for the Ideal oracle.

Ideal, Epoch and the vector configurations share one vector-clock rule
(:mod:`repro.detectors.hb`), so comparing them with each other cannot
catch a defect in that rule.  This reference shares none of it.  It
follows the trace-level definition of happens-before and builds the
graph explicitly:

* **program order** -- each event is ordered after the previous event
  of its thread;
* **sync edges** -- a sync write is ordered before every later sync
  access of the same variable, and a sync read before every later sync
  write of it (the conflicting pairs, in their observed order);

closed transitively.  A data access is flagged when an earlier data
access by another thread to the same word, one of the two a write, is
not ordered before it.

Ideal must never flag outside the reference.  The converse does not
hold yet: the 4-event witness below is a real race Ideal misses.  A
second hand-built witness, which the detectors do match, pins the
read->write sync edge that the fuzz programs never make decisive.
"""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.cachesim import CacheGeometry  # noqa: E402
from repro.common.types import AccessClass, AccessMode  # noqa: E402
from repro.detectors import (  # noqa: E402
    EpochDetector,
    IdealDetector,
    LimitedVectorDetector,
)
from repro.engine import run_program  # noqa: E402
from repro.fuzz import build_program, load_corpus  # noqa: E402
from repro.fuzz.strategies import fuzz_programs, schedule_seeds  # noqa: E402
from repro.trace import MemoryEvent, Trace  # noqa: E402

FUZZ_FIXTURES = (
    Path(__file__).parent.parent / "fixtures" / "golden" / "fuzz"
)


def reference_flagged(events):
    """Accesses racing under the explicit happens-before graph.

    ``before[i]`` is the bitset of events ordered before event ``i``.
    Every edge points forward in trace order, so one forward pass that
    ORs in each direct predecessor's set closes the graph transitively.
    """
    before = []
    last_of_thread = {}
    flagged = set()
    for i, event in enumerate(events):
        mask = 0
        prev = last_of_thread.get(event.thread)
        if prev is not None:
            mask |= before[prev] | 1 << prev
        for j, prior in enumerate(events[:i]):
            if (
                prior.address != event.address
                or prior.is_sync != event.is_sync
                or not (prior.is_write or event.is_write)
            ):
                continue
            if event.is_sync:
                mask |= before[j] | 1 << j
            elif prior.thread != event.thread and not mask >> j & 1:
                flagged.add((event.thread, event.icount))
        before.append(mask)
        last_of_thread[event.thread] = i
    return flagged


def _assert_ideal_within_reference(trace):
    ideal = IdealDetector(trace.n_threads).run(trace)
    reference = reference_flagged(trace.events)
    extra = ideal.flagged - reference
    assert not extra, "Ideal flags outside happens-before: %s" % sorted(
        extra
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fuzz_programs(), schedule_seeds())
def test_ideal_within_reference_on_fuzz_programs(fp, seed):
    program = build_program(fp)
    trace = run_program(program, seed=seed, on_deadlock="hang")
    _assert_ideal_within_reference(trace)


CORPUS = load_corpus(str(FUZZ_FIXTURES))


@pytest.mark.parametrize("witness", CORPUS, ids=[w.name for w in CORPUS])
def test_ideal_within_reference_on_fuzz_fixtures(witness):
    program = build_program(witness.program)
    trace = run_program(program, seed=witness.seed, on_deadlock="hang")
    _assert_ideal_within_reference(trace)


# -- the sync-read witness ---------------------------------------------------

_V = 0x8000000  # sync variable
_X = 0x100000  # data word


def _witness_trace():
    """t1 sync-reads V; t1 writes X; t0 sync-writes V; t0 reads X.

    The read->write edge on V orders t1's *read* before t0's write, but
    nothing orders t1's later write of X before t0's read of X.
    """
    return _hand_built_trace([
        (1, _V, True, False),
        (1, _X, False, True),
        (0, _V, True, True),
        (0, _X, False, False),
    ])


def _read_join_trace():
    """t0 writes X; t0 sync-reads V; t1 sync-writes V; t1 reads X.

    Only the read->write edge on V orders t0's write of X before t1's
    read of it, so a sync rule that drops the read history flags t1.
    """
    return _hand_built_trace([
        (0, _X, False, True),
        (0, _V, True, False),
        (1, _V, True, True),
        (1, _X, False, False),
    ])


def _hand_built_trace(accesses):
    """A two-thread trace of ``(thread, address, sync, write)`` rows."""
    icounts = [0, 0]
    events = []
    for index, (thread, address, sync, write) in enumerate(accesses):
        events.append(MemoryEvent(
            index,
            thread,
            address,
            AccessMode.WRITE if write else AccessMode.READ,
            AccessClass.SYNC if sync else AccessClass.DATA,
            icounts[thread],
            0,
        ))
        icounts[thread] += 1
    return Trace(events, icounts)


def test_reference_flags_the_witness():
    assert reference_flagged(_witness_trace().events) == {(0, 1)}


_HB_DETECTORS = pytest.mark.parametrize("build", [
    IdealDetector,
    EpochDetector,
    lambda n: LimitedVectorDetector(n, CacheGeometry.infinite()),
], ids=["Ideal", "Epoch", "InfCache"])


@_HB_DETECTORS
def test_detector_equals_reference_on_read_join(build):
    trace = _read_join_trace()
    assert reference_flagged(trace.events) == set()
    outcome = build(trace.n_threads).run(trace)
    assert outcome.flagged == reference_flagged(trace.events)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the sync rule ticks a thread's clock only on "
    "sync writes, so a sync read orders the reader's later accesses too",
)
@_HB_DETECTORS
def test_detector_equals_reference_on_witness(build):
    trace = _witness_trace()
    outcome = build(trace.n_threads).run(trace)
    assert outcome.flagged == reference_flagged(trace.events)
