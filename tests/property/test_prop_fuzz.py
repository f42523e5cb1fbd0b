"""Property tests over the differential fuzzer.

Two layers:

* the *oracle's invariants hold* on hypothesis-generated fuzz programs
  (scalar within vector, tiers byte-identical, replay equivalent) --
  this is the fuzzer running inside hypothesis's own shrinker;
* the *fuzzer machinery works*: specs round-trip through JSON, the
  hunt is deterministic, and -- the ISSUE's acceptance test -- a
  deliberately broken detector is found and shrunk to a witness of at
  most a dozen ops.

Bounded by default; set ``REPRO_FUZZ_DEEP=1`` for the deep
configuration CI's fuzz job runs on a timer.
"""

import os

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cachesim import CacheGeometry  # noqa: E402
from repro.cord import CordConfig, CordDetector  # noqa: E402
from repro.detectors import (  # noqa: E402
    IdealDetector,
    LimitedVectorDetector,
)
from repro.engine import run_program  # noqa: E402
from repro.fuzz import (  # noqa: E402
    FuzzProgram,
    build_program,
    check_program,
    hunt,
    shrink,
)
from repro.fuzz.broken import broken_spec  # noqa: E402
from repro.fuzz.strategies import fuzz_programs, schedule_seeds  # noqa: E402

DEEP = os.environ.get("REPRO_FUZZ_DEEP") == "1"

#: Example counts: bounded for tier-1, deep for the CI fuzz job.
EXAMPLES = 200 if DEEP else 25

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_LINE = 64


@settings(max_examples=EXAMPLES, **COMMON)
@given(fuzz_programs(), schedule_seeds())
def test_oracle_finds_no_disagreement_on_healthy_detectors(fp, seed):
    """The full cross-detector oracle is silent without planted faults."""
    found = check_program(fp, seed)
    assert not found, [str(d) for d in found]


@settings(max_examples=EXAMPLES, **COMMON)
@given(fuzz_programs(), schedule_seeds(), st.sampled_from([1, 16]))
def test_scalar_within_vector_on_fuzz_programs(fp, seed, d):
    """The subset hierarchy, asserted directly on the raw detectors."""
    program = build_program(fp)
    trace = run_program(program, seed=seed, on_deadlock="hang")
    n = program.n_threads
    vector = LimitedVectorDetector(
        n, CacheGeometry.infinite(_LINE)
    ).run(trace)
    ideal = IdealDetector(n).run(trace)
    scalar = CordDetector(
        CordConfig(d=d, cache_size=None, line_size=_LINE), n
    ).run(trace)
    assert not (scalar.flagged - vector.flagged)
    assert not (vector.flagged - ideal.flagged)


@settings(max_examples=EXAMPLES, **COMMON)
@given(fuzz_programs())
def test_spec_round_trips_through_json(fp):
    assert FuzzProgram.from_json(fp.to_json()) == fp


@settings(max_examples=EXAMPLES, **COMMON)
@given(fuzz_programs(), schedule_seeds())
def test_normalized_build_is_deterministic(fp, seed):
    """Same spec + seed -> bit-identical executions."""
    a = run_program(build_program(fp), seed=seed, on_deadlock="hang")
    b = run_program(build_program(fp), seed=seed, on_deadlock="hang")
    assert a.hung == b.hung
    assert [e.key() for e in a.events] == [e.key() for e in b.events]


class TestBrokenDetectorAcceptance:
    """The ISSUE acceptance gate: plant a fault, find it, shrink it."""

    def test_hb_oblivious_found_and_shrunk_small(self):
        report = hunt(
            n_programs=10,
            seed=2006,
            broken_variant="hb-oblivious",
            check_tiers=False,
        )
        assert report.witnesses, "planted fault was never detected"
        smallest = min(
            w.program.op_count for w in report.witnesses
        )
        assert smallest <= 12, (
            "witness did not shrink: %d ops" % smallest
        )
        # The shrunk witness still fails for the planted reason.
        witness = min(
            report.witnesses, key=lambda w: w.program.op_count
        )
        found = check_program(
            witness.program, witness.seed,
            extra_scalar_specs=[broken_spec("hb-oblivious")],
            check_tiers=False,
        )
        assert any(
            d.invariant == witness.invariant for d in found
        )
        # ...and passes cleanly under the real detector families.
        assert not check_program(witness.program, witness.seed)

    def test_sync_flagger_found(self):
        report = hunt(
            n_programs=20,
            seed=7,
            broken_variant="sync-flagger",
            check_tiers=False,
        )
        assert report.witnesses, "planted fault was never detected"

    def test_hunt_is_deterministic(self):
        kwargs = dict(
            n_programs=6, seed=42,
            broken_variant="hb-oblivious", check_tiers=False,
        )
        a = hunt(**kwargs)
        b = hunt(**kwargs)
        assert [w.to_json() for w in a.witnesses] == [
            w.to_json() for w in b.witnesses
        ]


def test_shrink_preserves_the_failing_invariant():
    spec = broken_spec("hb-oblivious")
    fp = FuzzProgram((
        (("write", 3), ("lock", 2), ("read", 5), ("unlock", 0)),
        (("read", 3), ("compute", 2), ("set", 1)),
        (("wait", 1), ("update", 3)),
    ))

    def oracle(candidate):
        return check_program(
            candidate, 99,
            extra_scalar_specs=[spec], check_tiers=False,
        )

    assert any(d.invariant == "subset" for d in oracle(fp))
    result = shrink(fp, "subset", oracle)
    assert result.program.op_count <= fp.op_count
    assert result.program.op_count <= 4
    assert any(
        d.invariant == "subset" for d in oracle(result.program)
    )


#: A fuzz find: a flag set by two threads, with a lock word on the flag's
#: line.  The lock write's upgrade folds the other thread's flag write
#: into the global memory pair, and a sync write takes only ``+1`` from
#: that pair, so CORD-D16 flags ``(1, 5)`` although Ideal does not.
DISPLACED_SYNC_WRITE = FuzzProgram(
    threads=(
        (("read", 0), ("read", 0), ("read", 0), ("read", 0), ("read", 0),
         ("lock", 0)),
        (("read", 0), ("read", 0), ("lock", 0), ("set", 0), ("write", 0)),
        (("set", 0), ("read", 0), ("set", 0)),
    ),
    n_words=6, n_mutexes=3, n_flags=3,
)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14: a sync write takes only +1 from the global "
    "memory pair, so a displaced first sync write leaves a false race",
)
def test_displaced_sync_write_witness():
    found = check_program(DISPLACED_SYNC_WRITE, 166)
    assert not found, [str(d) for d in found]
