"""Command-line interface for the CORD reproduction.

Usage (also available as ``python -m repro.cli``):

.. code-block:: console

    cord-repro list                      # Table 1: the workloads
    cord-repro run raytrace --seed 42    # one execution + CORD report
    cord-repro inject volrend -n 12      # Section 3.4 campaign, one app
    cord-repro figures --quick           # regenerate the paper's figures
    cord-repro replay cholesky           # record + replay verification
    cord-repro sweep --cache DIR         # checkpointed D-sensitivity sweep

A checkpointed ``sweep`` survives its own death: every journal
transition is durable, SIGTERM drains to exit code 71 ("interrupted,
resumable"), and re-running with the same ``--cache`` directory (or an
explicit ``--resume <run-id>``) completes bit-identically.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import (
    ConfigError,
    CordError,
    DegradedPathError,
    InterruptedRunError,
    PipelineError,
    StoreCorruptError,
    WorkerTimeoutError,
)
from repro.cord.config import CordConfig
from repro.cord.detector import CordDetector
from repro.cord.replay import replay_trace, verify_replay
from repro.engine.executor import run_program
from repro.experiments.runner import Suite, SuiteConfig
from repro.experiments.tables import table1
from repro.injection.campaign import (
    CampaignConfig,
    format_campaign_report,
    run_campaign,
)
from repro.trace.stats import compute_stats
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload, workload_names


def _cmd_list(_args) -> int:
    print(table1().render())
    return 0


def _cmd_run(args) -> int:
    spec = get_workload(args.workload)
    program = spec.build(WorkloadParams(scale=args.scale))
    trace = run_program(program, seed=args.seed)
    stats = compute_stats(trace)
    outcome = CordDetector(
        CordConfig(d=args.window), program.n_threads
    ).run(trace)
    print("workload : %s (%s)" % (spec.name, spec.input_label))
    print("events   : %d (%.1f%% sync), %d shared words" % (
        stats.n_events, 100 * stats.sync_fraction, stats.shared_words))
    print("races    : %d" % outcome.raw_count)
    print("order log: %d entries / %d bytes" % (
        len(outcome.log), outcome.log_bytes))
    for key in ("race_checks", "fast_hits", "memts_update_broadcasts"):
        print("%-24s %d" % (key, outcome.counters[key]))
    return 0


def _cmd_inject(args) -> int:
    spec = get_workload(args.workload)
    campaign = run_campaign(
        spec.program_factory(WorkloadParams(scale=args.scale)),
        spec.name,
        CampaignConfig(n_runs=args.runs, base_seed=args.seed),
    )
    # One renderer shared with the campaign service (repro.service), so
    # the byte-identity contract between the two paths is structural.
    sys.stdout.write(format_campaign_report(campaign))
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments import figures
    from repro.experiments.export import write_figure_csv

    if args.quick:
        config = SuiteConfig(
            runs_per_app=4,
            workloads=("fft", "raytrace", "ocean"),
            params=WorkloadParams(scale=0.5),
        )
    else:
        config = SuiteConfig(runs_per_app=args.runs)
    suite = Suite(config, jobs=args.jobs, cache_dir=args.cache)
    results = [
        driver(suite)
        for driver in (
            figures.figure10,
            figures.figure12,
            figures.figure13,
            figures.figure14,
            figures.figure15,
            figures.figure16,
            figures.figure17,
        )
    ]
    results.append(
        figures.figure11(
            params=config.params,
            workloads=config.workloads if args.quick else None,
        )
    )
    for figure in results:
        print(figure.render())
        print()
    if args.csv:
        import os

        os.makedirs(args.csv, exist_ok=True)
        for figure in results:
            name = figure.figure_id.lower().replace(" ", "")
            path = write_figure_csv(
                figure, os.path.join(args.csv, name + ".csv")
            )
            print("wrote %s" % path)
    if args.profile:
        _print_profile(suite)
    return 0


def _print_profile(suite) -> None:
    """Render the last fan-out's per-stage timing breakdown."""
    from repro.common.texttable import format_table

    report = suite.last_report
    if report is None or not report.outcomes:
        print("profile: no fan-out ran (all campaigns cache-served)")
        return
    totals = report.profile()
    if totals:
        print(format_table(
            ["stage", "seconds"],
            sorted(totals.items()),
            title="Aggregate stage time (summed across tasks)",
        ))
        print()
    rows = [
        (
            out.name, out.path, out.attempts,
            out.timings.get("record_s", 0.0),
            out.timings.get("store_io_s", 0.0),
            out.timings.get("analyze_s", 0.0),
            out.timings.get("task_s", 0.0),
        )
        for out in report.outcomes
    ]
    print(format_table(
        ["task", "path", "tries", "record_s", "store_io_s",
         "analyze_s", "task_s"],
        rows,
        title="Per-task stage timings",
    ))


def _cmd_characterize(args) -> int:
    from repro.workloads.validation import validate_workloads

    names = [args.workload] if args.workload else None
    report = validate_workloads(
        names, WorkloadParams(scale=args.scale)
    )
    print(report.render())
    if not report.all_race_free:
        for name, detail in report.failures.items():
            print("FAIL %s: %s" % (name, detail))
        return 1
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.reportgen import write_report

    if args.quick:
        config = SuiteConfig(
            runs_per_app=4,
            workloads=("fft", "raytrace", "ocean"),
            params=WorkloadParams(scale=0.5),
        )
    else:
        config = SuiteConfig(runs_per_app=args.runs)
    path = write_report(args.out, config=config)
    print("wrote %s" % path)
    return 0


def _cmd_sweep(args) -> int:
    """Checkpointed D-sensitivity sweep (the resumable campaign driver).

    The report goes to stdout and is byte-identical no matter how many
    interruptions and resumes preceded it; progress/accounting lines go
    to stderr so byte-comparing stdout (as the kill-anywhere CI step
    does) stays meaningful.
    """
    from pathlib import Path

    from repro.experiments.sensitivity import D_VALUES, d_sensitivity
    from repro.resilience.checkpoint import GracefulShutdown
    from repro.resilience.journal import RunCheckpoint
    from repro.trace.store import PackedTraceStore

    workloads = tuple(args.apps)
    params = WorkloadParams(scale=args.scale)
    identity = (
        "sweep-d", workloads, tuple(D_VALUES), args.runs, repr(params),
        args.seed,
    )
    store = None
    ckpt = None
    if args.cache:
        root = Path(args.cache)
        store = PackedTraceStore(root / "traces")
        ckpt = RunCheckpoint.open(
            root,
            identity=identity,
            kind="sweep",
            resume=args.resume,
            quarantine_dirs=((root / "traces" / "quarantine"),),
        )
        for key in ("tmp_pruned", "journals_pruned",
                    "quarantine_pruned"):
            if ckpt.stats.get(key):
                print("startup gc: %s=%d" % (key, ckpt.stats[key]),
                      file=sys.stderr)
        print("run id: %s%s" % (
            ckpt.run_id, " (resumed)" if ckpt.resumed else "",
        ), file=sys.stderr)
    try:
        with GracefulShutdown():
            sweep = d_sensitivity(
                workloads=workloads,
                runs_per_app=args.runs,
                params=params,
                base_seed=args.seed,
                trace_store=store,
                checkpoint=ckpt,
            )
        if ckpt is not None:
            ckpt.finish()
    except InterruptedRunError:
        if ckpt is not None:
            ckpt.interrupt()
        raise
    finally:
        if ckpt is not None:
            ckpt.close()
    print(sweep.render())
    if store is not None:
        # Resume accounting (stderr: not part of the comparable report).
        # Every simulation is a run miss in some stage's store: a record
        # stage, or an analyze stage re-recording a torn entry.
        simulated = store.stats["run_misses"]
        print("recording: %d simulated, %d replayed from store" % (
            simulated, len(workloads) * args.runs - simulated,
        ), file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    spec = get_workload(args.workload)
    program = spec.build(WorkloadParams(scale=args.scale))
    trace = run_program(program, seed=args.seed)
    outcome = CordDetector(CordConfig(), program.n_threads).run(trace)
    replayed = replay_trace(program, outcome.log)
    verdict = verify_replay(trace, replayed)
    print("recorded %d events, log %d bytes" % (
        len(trace.events), outcome.log_bytes))
    print("replay verdict: %s" % verdict.detail)
    return 0 if verdict.equivalent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cord-repro",
        description="CORD (HPCA 2006) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show Table 1").set_defaults(
        func=_cmd_list
    )

    def add_workload_options(p):
        p.add_argument("workload", choices=workload_names())
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--scale", type=float, default=1.0)

    run_p = sub.add_parser("run", help="execute one workload under CORD")
    add_workload_options(run_p)
    run_p.add_argument("--window", type=int, default=16,
                       help="the sync-read window D (default 16)")
    run_p.set_defaults(func=_cmd_run)

    inj_p = sub.add_parser(
        "inject", help="run a Section 3.4 injection campaign"
    )
    add_workload_options(inj_p)
    inj_p.add_argument("-n", "--runs", type=int, default=10)
    inj_p.set_defaults(func=_cmd_inject)

    fig_p = sub.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    fig_p.add_argument("--quick", action="store_true")
    fig_p.add_argument("--runs", type=int, default=12)
    fig_p.add_argument(
        "--csv", metavar="DIR",
        help="also write each figure as CSV into DIR",
    )
    fig_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the campaign fan-out "
             "(default: REPRO_JOBS or 1)",
    )
    fig_p.add_argument(
        "--cache", metavar="DIR", default=None,
        help="campaign cache directory (enables the checkpointed "
             "run-level scheduler; default: REPRO_CACHE_DIR)",
    )
    fig_p.add_argument(
        "--profile", action="store_true",
        help="print the per-stage timing breakdown "
             "(record/store-io/analyze per task) after the figures",
    )
    fig_p.set_defaults(func=_cmd_figures)

    rep_p = sub.add_parser(
        "replay", help="record one run, replay it, verify equivalence"
    )
    add_workload_options(rep_p)
    rep_p.set_defaults(func=_cmd_replay)

    sweep_p = sub.add_parser(
        "sweep",
        help="checkpointed D-sensitivity sweep (resumable: exit 71 "
             "means re-run with the same --cache to continue)",
    )
    sweep_p.add_argument(
        "--apps", nargs="+", choices=workload_names(),
        default=["fft", "ocean", "fmm"],
    )
    sweep_p.add_argument("-n", "--runs", type=int, default=8,
                         help="injection runs per application")
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--seed", type=int, default=2006)
    sweep_p.add_argument(
        "--cache", metavar="DIR",
        help="cache directory (enables recording store, journal, and "
             "crash-consistent resume)",
    )
    sweep_p.add_argument(
        "--resume", default="auto", metavar="RUN_ID",
        help="journal to resume: 'auto' (latest matching, the "
             "default), 'fresh' (ignore existing journals), or an "
             "explicit run id",
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    char_p = sub.add_parser(
        "characterize",
        help="validate race-freedom and profile the workloads",
    )
    char_p.add_argument(
        "workload", nargs="?", choices=workload_names(), default=None
    )
    char_p.add_argument("--scale", type=float, default=1.0)
    char_p.set_defaults(func=_cmd_characterize)

    report_p = sub.add_parser(
        "report", help="write the full Markdown reproduction report"
    )
    report_p.add_argument("--out", default="cord_report.md")
    report_p.add_argument("--quick", action="store_true")
    report_p.add_argument("--runs", type=int, default=12)
    report_p.set_defaults(func=_cmd_report)

    return parser


#: Library failure domain -> process exit code, most specific first.
#: 2 follows argparse's usage-error convention; the resilience taxonomy
#: gets the 66+ range (inspired by BSD sysexits) so scripts driving long
#: campaigns can tell "your cache is damaged" (66) from "a worker hung"
#: (67) from "even the scalar path failed" (68) without parsing stderr.
#: 71 is special: "interrupted, resumable" -- nothing failed, re-run
#: with the same cache/--resume to continue where the drain stopped.
EXIT_CODES = (
    (ConfigError, 2),
    (StoreCorruptError, 66),
    (WorkerTimeoutError, 67),
    (DegradedPathError, 68),
    (InterruptedRunError, 71),
    (PipelineError, 69),
    (CordError, 70),
)


def exit_code_for(exc: BaseException) -> int:
    """The exit code for a library exception (see :data:`EXIT_CODES`)."""
    for exc_type, code in EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CordError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
