"""Shared benchmark fixtures.

The detection figures (10, 12-17) all derive from one injection-campaign
suite over the twelve applications; it is computed once per benchmark
session.  Set ``CORD_BENCH_RUNS`` to change the number of injected runs
per application (default 8; the paper used 20-100 -- raise it for tighter
per-app numbers at proportional cost) and ``CORD_BENCH_JOBS`` (or
``REPRO_JOBS``) to fan the per-application campaigns out over worker
processes.

Besides pytest-benchmark's own stats, the session writes two
machine-readable trajectory files next to this module --
``BENCH_components.json`` (component throughput: wall time, event
counts, events/second) and ``BENCH_sweeps.json`` (end-to-end sweep wall
times and the record-once speedup).  Each session appends (or replaces)
one entry keyed by ``CORD_BENCH_LABEL``, stamped with the date, kernel
backend, and git short sha; the committed entries track how the
simulator's performance moves PR over PR.  A session without a label
writes neither file.  The explicit wall-clock measurement is what makes
the entries exist even under ``--benchmark-disable`` (the CI smoke
mode).
"""

import json
import os
import subprocess
import time
from pathlib import Path

import pytest

from repro.experiments import Suite, SuiteConfig
from repro.resilience.checkpoint import atomic_write_json
from repro.workloads import WorkloadParams

RUNS_PER_APP = int(os.environ.get("CORD_BENCH_RUNS", "8"))
JOBS = int(os.environ.get("CORD_BENCH_JOBS", "0")) or None  # None: REPRO_JOBS

_BENCH_DIR = Path(__file__).resolve().parent
_SCHEMA = 1


@pytest.fixture(scope="session")
def suite():
    """The full 12-application campaign suite (computed once)."""
    config = SuiteConfig(
        runs_per_app=RUNS_PER_APP,
        params=WorkloadParams(),
    )
    instance = Suite(config, jobs=JOBS)
    instance.campaigns()
    return instance


class BenchLog:
    """Collects named measurements, flushed to the trajectory files.

    ``kind`` routes an entry to ``BENCH_components.json`` or
    ``BENCH_sweeps.json``.  Repeated measurements of one name within a
    session (pytest-benchmark rounds) keep the fastest run.
    """

    def __init__(self):
        self._results = {"components": {}, "sweeps": {}}

    def record(self, kind, name, seconds, events=None, extra=None):
        entry = {"wall_s": round(seconds, 6)}
        if events is not None:
            entry["events"] = int(events)
            if seconds > 0:
                entry["events_per_s"] = int(events / seconds)
        if extra:
            entry.update(extra)
        previous = self._results[kind].get(name)
        if previous is None or entry["wall_s"] < previous["wall_s"]:
            self._results[kind][name] = entry

    def timed(self, kind, name, fn, *args, events=None, **kwargs):
        """Run ``fn`` once, recording its wall time (and event count).

        ``events`` may be a number or a callable over the result.
        """
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        count = events(result) if callable(events) else events
        self.record(kind, name, elapsed, events=count)
        return result

    def flush(self):
        """Write the trajectory files, only for a labelled session.

        Without ``CORD_BENCH_LABEL`` nothing is written, so running a
        benchmark (or CI's smoke commands) locally leaves the tracked
        files untouched.
        """
        label = os.environ.get("CORD_BENCH_LABEL", "").strip()
        if not label:
            return
        commit = _git_short_sha()
        for kind, results in self._results.items():
            if not results:
                continue
            from repro.trace.kernels import kernel_backend

            entry = {
                "label": label,
                "date": time.strftime("%Y-%m-%d"),
                "runs_per_app": RUNS_PER_APP,
                "backend": kernel_backend(),
                "results": results,
            }
            if commit:
                entry["commit"] = commit
            _append_entry(_BENCH_DIR / ("BENCH_%s.json" % kind), entry)


def _git_short_sha():
    """The working tree's short commit sha, or None outside git."""
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_BENCH_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = probe.stdout.strip()
    return sha if probe.returncode == 0 and sha else None


def _append_entry(path, entry):
    """Append (or replace, by label) one entry in a trajectory file."""
    payload = {"schema": _SCHEMA, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if loaded.get("schema") == _SCHEMA:
                payload = loaded
        except (ValueError, OSError):
            pass  # unreadable trajectory: start fresh
    payload["entries"] = [
        existing
        for existing in payload["entries"]
        if existing.get("label") != entry["label"]
    ] + [entry]
    # Atomic (tmp -> fsync -> rename): a benchmark session killed
    # mid-flush must not tear the committed trajectory history.
    atomic_write_json(path, payload, indent=2, sort_keys=True)


@pytest.fixture(scope="session", autouse=True)
def announce_analysis_backend():
    """Say once which analysis paths this benchmark session exercises."""
    from repro.cord.fused import fusion_enabled
    from repro.trace.kernels import kernel_backend

    print(
        "\n[repro] analysis kernels: %s; interval-fused sweeps: %s"
        % (kernel_backend(), "on" if fusion_enabled() else "off")
    )


@pytest.fixture(scope="session")
def bench_log():
    log = BenchLog()
    yield log
    log.flush()
