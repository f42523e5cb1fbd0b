"""Benchmark of the CORD reproduction: one workload, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 10 --trace 0

Prints a human-readable report, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (an untraced pass and then a traced one, whose wall-time
difference is the tracing overhead).  ``--record-expected`` re-derives
the stored outputs of the simulator workloads instead (see README.md).
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
EXPECTED = BENCH_DIR / "expected.json"

WORKLOADS = ("figures-cold", "sweep-warm", "service-local", "service-remote")

#: How many seconds of ``--seconds`` one pass stands for.  A run makes
#: ``max(1, round(seconds / PASS_SECONDS))`` whole passes, so the work
#: per run depends on ``--seconds`` alone, never on the host's speed.
#: At 20 seconds: one pass of figures-cold (about 30 s on a 2-core host)
#: and of sweep-warm (about 13 s), two of each service workload (5-10 s
#: each).  ``wall_s`` is the median over a run's passes.
PASS_SECONDS = {
    "figures-cold": 30, "sweep-warm": 20,
    "service-local": 10, "service-remote": 10,
}

#: Per-layer self times: span name -> metric ``<span>_s``.
SELF_TIME_SPANS = (
    "workloads.build", "injection.sizing", "engine.record",
    "injection.record", "trace.load", "cord.plan", "cord.kernel",
    "cord.fused", "detectors.ideal", "detectors.vector",
    "injection.analyze", "experiments.views", "timingsim.fig11",
)

#: Per-layer counts read from the program; zero where a workload does
#: not reach the layer.
COUNTS = (
    ("engine.events", "count"), ("cord.race_checks", "count"),
    ("cord.fast_hits", "count"), ("cord.clock_changes", "count"),
    ("cord.memts_update_broadcasts", "count"),
    ("cord.log_bytes", "bytes"), ("trace.mmap_hits", "count"),
    ("trace.run_hits", "count"), ("service.simulated", "count"),
    ("service.replayed", "count"), ("service.result_hits", "count"),
    ("workers.leases_granted", "count"),
    ("workers.remote_completions", "count"),
    ("workers.repl_pushes", "count"), ("workers.repl_pulls", "count"),
    ("workers.repl_bytes", "bytes"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="write the simulator workloads' outputs to "
                             "expected.json instead of checking them")
    return parser.parse_args(argv)


def load_program():
    """Import the program from the checkout's ``src``; exit 2 if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program at %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        # The program runs at its defaults, whatever the caller's shell.
        print("perfbench: ignoring %s" % key, file=sys.stderr)
        del os.environ[key]


def make_workload(name: str, seed: int, record: bool):
    run_dir = RUN_DIR / name
    if name in ("figures-cold", "sweep-warm"):
        import simulator

        run_dir.mkdir(parents=True, exist_ok=True)
        expected = None
        if not record:
            with open(EXPECTED) as fh:
                expected = json.load(fh)[name]
        cls = (simulator.FiguresCold if name == "figures-cold"
               else simulator.SweepWarm)
        return cls(run_dir, seed, expected)
    import service_load

    cls = (service_load.RemoteServiceWorkload if name == "service-remote"
           else service_load.ServiceWorkload)
    return cls(run_dir, seed, SRC)


def end_to_end(setup_s, passes, rss_mb, report):
    from passes import median, tail

    latencies = [lat for p in passes for lat in p.latencies]
    percentile, tail_s = tail(latencies)
    report.append("op_tail_ms is p%d of n=%d ops" % (
        percentile, len(latencies)))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median([p.wall_s for p in passes]), "s"),
        "op_p50_ms": (1000 * median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced, report):
    from passes import median

    self_times = tracer.self_times()
    calls = tracer.calls()
    metrics = {}
    for span in SELF_TIME_SPANS:
        metrics[span + "_s"] = (self_times.get(span, 0.0), "s")
        report.append("%-24s self %9.4f s  calls %6d" % (
            span, self_times.get(span, 0.0), calls.get(span, 0)))
    jobs = {span.op: span.duration for span in tracer.spans
            if span.name == "service.job"}
    metrics["service.submit_ms"] = (
        1000 * median(tracer.durations("service.submit")), "ms")
    for cls in ("cold", "warm"):
        metrics["service.%s_job_ms" % cls] = (1000 * median([
            duration for op, duration in jobs.items()
            if traced.op_class.get(op) == cls
        ]), "ms")
    for name, unit in COUNTS:
        metrics[name] = (traced.counts.get(name, 0), unit)
    overhead = traced.wall_s - untraced.wall_s
    metrics["tracing.overhead_s"] = (overhead, "s")
    report.append("tracing overhead: traced wall_s %.3f - untraced %.3f "
                  "= %.3f s" % (traced.wall_s, untraced.wall_s, overhead))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_expected and args.workload.startswith("service"):
        # Service jobs are checked against in-process campaigns instead.
        print("perfbench: --record-expected is for figures-cold and "
              "sweep-warm", file=sys.stderr)
        return 2
    load_program()
    from tracing import NullTracer, Tracer, layer_patches

    workload = make_workload(args.workload, args.seed, args.record_expected)
    report = []
    try:
        workload.setup()
        setup_s = time.perf_counter() - _PROCESS_START
        if args.record_expected:
            result = workload.run_pass(0, NullTracer())
            return record_expected(args.workload, workload, result)
        n_passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        passes = [workload.run_pass(index, NullTracer())
                  for index in range(n_passes)]
        rss_mb = workload.peak_rss_mb()
        if args.trace:
            tracer = Tracer()
            with layer_patches(tracer):
                traced = workload.run_pass(n_passes, tracer)
            passes.append(traced)
        workload.check_passes(passes)
        if args.trace:
            tracer.write_jsonl(RUN_DIR / ("%s-spans.jsonl" % args.workload))
            metrics = per_layer(tracer, traced, passes[-2], report)
        else:
            metrics = end_to_end(setup_s, passes, rss_mb, report)
    finally:
        workload.close()
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    mismatches = [m for p in passes for m in p.mismatches]
    print("workload %s, seed %d, %d pass(es)%s" % (
        args.workload, args.seed, n_passes,
        " + 1 traced" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6f %s" % (name, value, unit))
    for line in report:
        print("  " + line)
    print("  fail_frac = %d / %d = %.6f (failed / attempted ops)" % (
        len(failures), attempted, len(failures) / attempted))
    for line in failures:
        print("  failed op: " + line)
    for line in mismatches:
        print("  OUTPUT CHECK FAILED: " + line)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_expected(name, workload, result) -> int:
    stored = {}
    if EXPECTED.exists():
        with open(EXPECTED) as fh:
            stored = json.load(fh)
    stored[name] = workload.observed
    with open(EXPECTED, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %s outputs (%d failed op(s)) in %s" % (
        name, len(result.failures), EXPECTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
