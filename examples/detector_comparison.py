"""The detector zoo on one injected bug, side by side.

Runs one injected execution of the fmm analogue through every detector in
this repository -- the Ideal happens-before oracle, its FastTrack-style
epoch optimization, the ReEnact-like limited vector configurations and the
full CORD D-sweep -- and prints what each reported, with the properties
that distinguish them.

    python examples/detector_comparison.py [app] [injection-index]
"""

import sys

from repro import (
    CordConfig,
    CordDetector,
    IdealDetector,
    InjectionInterceptor,
    LimitedVectorDetector,
    WorkloadParams,
    get_workload,
    run_program,
)
from repro.cachesim import CacheGeometry
from repro.common.texttable import format_table
from repro.detectors import EpochDetector


def main(app="fmm", target=7):
    program = get_workload(app).build(WorkloadParams())
    interceptor = InjectionInterceptor(target)
    trace = run_program(program, seed=11, interceptor=interceptor)
    removed = interceptor.removed
    print("workload : %s, %d events" % (app, len(trace.events)))
    if removed:
        print("injected : removed %s instance on %#x (thread %d)\n" % (
            removed.kind, removed.address, removed.thread))

    n = program.n_threads
    detectors = [
        ("Ideal (HB oracle)", IdealDetector(n),
         "complete; needs unlimited state"),
        ("Epoch (FastTrack)", EpochDetector(n),
         "same verdicts, O(1) fast path"),
        ("Vector + L2 caches", LimitedVectorDetector(
            n, CacheGeometry(32 * 1024)),
         "ReEnact-like; exact but costly"),
        ("Vector + L1 caches", LimitedVectorDetector(
            n, CacheGeometry(8 * 1024)),
         "severe buffering limit"),
        ("CORD D=1", CordDetector(CordConfig(d=1), n),
         "naive scalar clocks"),
        ("CORD D=16", CordDetector(CordConfig(d=16), n),
         "the paper's mechanism"),
    ]

    oracle = None
    rows = []
    for name, detector, note in detectors:
        outcome = detector.run(trace)
        if oracle is None:
            oracle = outcome
        rows.append([
            name,
            outcome.raw_count,
            "yes" if outcome.problem_detected else "no",
            len(outcome.flagged - oracle.flagged),
            note,
        ])
    print(format_table(
        ["detector", "races", "problem?", "extra vs HB", "character"],
        rows,
    ))
    print("\n'extra vs HB' counts accesses flagged beyond the oracle:")
    print("zero for the vector family always; possibly nonzero for")
    print("scalar CORD only in already-racy runs.")


if __name__ == "__main__":
    app = sys.argv[1] if len(sys.argv) > 1 else "fmm"
    target = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    main(app, target)
