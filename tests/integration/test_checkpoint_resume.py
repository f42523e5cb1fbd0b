"""Kill-anywhere integration suite: the checkpointed sweep under death.

The crash-consistency contract (``docs/resilience.md`` section 6): a
checkpointed D-sensitivity sweep can lose its driver process at *any*
journal transition -- ``kill -9`` (``driver_kill``), power loss with
the journal tail unflushed (``power_cut``), or SIGTERM
(``sigterm_drain`` / the real signal) -- and re-running over the same
cache directory completes with a report and a cache tree byte-identical
to an uninterrupted run's.  On top of that, a trace whose ``recorded``
journal entry was durable before the kill is *never* re-simulated.

These tests drive the real CLI in subprocesses so the deaths are real
(``os._exit``) and the exit codes (87/88/71) travel the real path.  The
driver-kill matrix covers every transition of the journal; to keep that
affordable each matrix point starts from a cache pre-warmed with the
clean run's *recorded traces* (simulation is the expensive step and is
orthogonal to journaling -- the cold-store recording behavior has its
own tests below).
"""

import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.journal import WAL_SUFFIX, iter_records, replay

_REPO = Path(__file__).resolve().parents[2]
_SWEEP_ARGS = ["sweep", "--apps", "fft", "-n", "1", "--scale", "0.25"]
_TIMEOUT = 180

_DRIVER_KILL = 87
_POWER_CUT = 88
_INTERRUPTED = 71

_RECORDING_RE = re.compile(
    r"recording: (\d+) simulated, (\d+) replayed from store"
)


def _run_sweep(cache, extra_env=None, extra_args=()):
    """One CLI sweep invocation in a hygienic subprocess."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(_REPO / "src")
    env["REPRO_FSYNC"] = "0"  # tmpdir churn; durability is the OS's job
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"]
        + _SWEEP_ARGS + ["--cache", str(cache)] + list(extra_args),
        capture_output=True,
        text=True,
        env=env,
        timeout=_TIMEOUT,
    )


def _tree_digest(cache):
    """Byte digest of every durable artifact, excluding bookkeeping.

    The journal directory is per-run history (an interrupted run
    legitimately leaves more journals behind) and quarantine holds
    post-mortem debris; everything else must be byte-identical between
    an interrupted-and-resumed run and an uninterrupted one.
    """
    cache = Path(cache)
    digest = {}
    for path in sorted(cache.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(cache)
        if rel.parts[0] == "journal" or "quarantine" in rel.parts:
            continue
        digest[str(rel)] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digest


def _journal_paths(cache):
    jdir = Path(cache) / "journal"
    if not jdir.is_dir():
        return []
    return sorted(jdir.iterdir())


def _position(clean, rtype, task):
    """The 1-based journal position of the clean run's ``(type, task)``
    record -- the value a positional fault needs to fire on it."""
    return clean["records"].index((rtype, task)) + 1


def _simulated_count(stderr):
    match = _RECORDING_RE.search(stderr)
    assert match, "no recording accounting on stderr:\n%s" % stderr
    return int(match.group(1))


def _warm_cache(clean_cache, target):
    """A fresh cache root pre-seeded with the clean run's recorded traces.

    Only ``trace-*`` entries are copied: analysis artifacts and the
    journal stay cold, so every journal transition of a fresh run still
    happens -- just without paying for simulation at each matrix point.
    """
    target = Path(target)
    traces = target / "traces"
    traces.mkdir(parents=True)
    for path in (Path(clean_cache) / "traces").iterdir():
        if path.is_file() and path.name.startswith("trace-"):
            shutil.copy2(path, traces / path.name)
    return target


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The uninterrupted reference run (cold cache)."""
    cache = tmp_path_factory.mktemp("clean-cache")
    result = _run_sweep(cache)
    assert result.returncode == 0, result.stderr
    journals = _journal_paths(cache)
    assert len(journals) == 1 and journals[0].name.endswith(".done")
    state = replay(journals[0])
    assert state.finished
    records = [
        (record["type"], record.get("task"))
        for record in iter_records(journals[0].read_bytes(), "clean")
    ]
    return {
        "cache": cache,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "tree": _tree_digest(cache),
        "n_records": state.n_records,
        "records": records,
        "state": state,
    }


class TestCleanReference:
    def test_journal_covers_full_lifecycle(self, clean):
        # One workload task around one run task, each journaled
        # scheduled -> (recorded ->) committed, between begin and end.
        assert clean["records"] == [
            ("begin", None),
            ("scheduled", "fft"),
            ("scheduled", "fft/run0"),
            ("recorded", "fft/run0"),
            ("committed", "fft/run0"),
            ("committed", "fft"),
            ("end", None),
        ]
        assert clean["n_records"] == len(clean["records"])

    def test_cold_run_simulates(self, clean):
        assert _simulated_count(clean["stderr"]) >= 1

    def test_report_is_the_sweep(self, clean):
        assert "Sensitivity sweep over D" in clean["stdout"]


class TestDriverKillMatrix:
    def test_kill_at_every_transition_resumes_bit_identical(
        self, clean, tmp_path
    ):
        """The tentpole property: kill -9 anywhere, resume, same bytes."""
        for position in range(1, clean["n_records"] + 1):
            cache = _warm_cache(clean["cache"],
                                tmp_path / ("k%02d" % position))
            killed = _run_sweep(
                cache,
                extra_env={
                    "REPRO_FAULTS": "driver_kill:%d" % position
                },
            )
            assert killed.returncode == _DRIVER_KILL, (
                "transition %d: expected the driver-kill exit, got %d\n%s"
                % (position, killed.returncode, killed.stderr)
            )
            # The wal survived the kill and replays exactly the records
            # flushed before death (driver_kill fires post-flush).
            wals = [
                p for p in _journal_paths(cache)
                if p.name.endswith(WAL_SUFFIX)
            ]
            assert len(wals) == 1
            assert replay(wals[0]).n_records == position

            resumed = _run_sweep(cache)
            assert resumed.returncode == 0, (
                "transition %d: resume failed\n%s"
                % (position, resumed.stderr)
            )
            assert "(resumed)" in resumed.stderr
            assert resumed.stdout == clean["stdout"], (
                "transition %d: resumed report differs" % position
            )
            assert _tree_digest(cache) == clean["tree"], (
                "transition %d: resumed cache tree differs" % position
            )
            # The journal was sealed on the resumed completion.
            assert any(
                p.name.endswith(".done") for p in _journal_paths(cache)
            )


class TestPowerCut:
    def test_unflushed_tail_is_lost_but_run_resumes(
        self, clean, tmp_path
    ):
        # The run's commit, written once its outcome bundle is durable.
        position = _position(clean, "committed", "fft/run0")
        cache = _warm_cache(clean["cache"], tmp_path / "cut")
        cut = _run_sweep(
            cache,
            extra_env={"REPRO_FAULTS": "power_cut:%d" % position},
        )
        assert cut.returncode == _POWER_CUT, cut.stderr
        # The fault exits *before* the flush: the record it fired on
        # never reached the file, so replay sees strictly fewer records.
        wals = [
            p for p in _journal_paths(cache)
            if p.name.endswith(WAL_SUFFIX)
        ]
        assert len(wals) == 1
        assert replay(wals[0]).n_records < position

        resumed = _run_sweep(cache)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean["stdout"]
        assert _tree_digest(cache) == clean["tree"]

    def test_power_cut_at_first_record(self, clean, tmp_path):
        # Losing even the begin record must not strand the run.
        cache = _warm_cache(clean["cache"], tmp_path / "cut0")
        cut = _run_sweep(
            cache, extra_env={"REPRO_FAULTS": "power_cut:1"}
        )
        assert cut.returncode == _POWER_CUT
        resumed = _run_sweep(cache)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean["stdout"]
        assert _tree_digest(cache) == clean["tree"]


class TestSigtermDrain:
    def test_injected_drain_exits_resumable(self, clean, tmp_path):
        # Between recording and analysis: the analyze task is still
        # queued when the drain request lands.
        position = _position(clean, "recorded", "fft/run0")
        cache = _warm_cache(clean["cache"], tmp_path / "drain")
        drained = _run_sweep(
            cache,
            extra_env={"REPRO_FAULTS": "sigterm_drain:%d" % position},
        )
        assert drained.returncode == _INTERRUPTED, drained.stderr
        assert "--resume" in drained.stderr

        resumed = _run_sweep(cache)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean["stdout"]
        assert _tree_digest(cache) == clean["tree"]

    def test_real_sigterm_drains_to_71(self, clean, tmp_path):
        """An actual SIGTERM mid-run takes the same resumable path."""
        cache = tmp_path / "sigterm"
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(_REPO / "src")
        env["REPRO_FSYNC"] = "0"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli"]
            + _SWEEP_ARGS + ["--cache", str(cache)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # Signal once the journal exists (the run is mid-flight).
            deadline = time.time() + _TIMEOUT
            while time.time() < deadline:
                if any(
                    p.name.endswith(WAL_SUFFIX)
                    for p in _journal_paths(cache)
                ):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # The run either drained resumable (the interesting case) or
        # finished before the signal landed (a fast-machine race --
        # still a pass for the contract under test).
        assert proc.returncode in (0, _INTERRUPTED), stderr
        if proc.returncode == _INTERRUPTED:
            resumed = _run_sweep(cache)
            assert resumed.returncode == 0, resumed.stderr
            assert resumed.stdout == clean["stdout"]
            assert _tree_digest(cache) == clean["tree"]


class TestNeverReRecords:
    """A trace whose ``recorded`` journal entry committed is never
    re-simulated, no matter how the driver died (cold store: this is
    about the recording step itself)."""

    def test_kill_after_recorded_skips_simulation_on_resume(
        self, clean, tmp_path
    ):
        # driver_kill fires after the flush of "recorded fft/run0", so
        # the entry -- and the trace the store wrote just before it --
        # are durable.
        position = _position(clean, "recorded", "fft/run0")
        cache = tmp_path / "after"
        killed = _run_sweep(
            cache,
            extra_env={"REPRO_FAULTS": "driver_kill:%d" % position},
        )
        assert killed.returncode == _DRIVER_KILL
        resumed = _run_sweep(cache)
        assert resumed.returncode == 0, resumed.stderr
        assert _simulated_count(resumed.stderr) == 0
        assert resumed.stdout == clean["stdout"]

    def test_kill_before_recorded_resimulates_identically(
        self, clean, tmp_path
    ):
        # Killed right after "scheduled fft/run0": nothing was
        # recorded, so the resume pays the simulation -- and still
        # lands on the same bytes.
        position = _position(clean, "scheduled", "fft/run0")
        cache = tmp_path / "before"
        killed = _run_sweep(
            cache,
            extra_env={"REPRO_FAULTS": "driver_kill:%d" % position},
        )
        assert killed.returncode == _DRIVER_KILL
        resumed = _run_sweep(cache)
        assert resumed.returncode == 0, resumed.stderr
        assert _simulated_count(resumed.stderr) >= 1
        assert resumed.stdout == clean["stdout"]
        assert _tree_digest(cache) == clean["tree"]


class TestResumeSafety:
    def test_explicit_resume_with_wrong_identity_refused(
        self, clean, tmp_path
    ):
        # Same cache, different sweep identity (seed): resuming the
        # existing run id must be refused (exit 66, corrupt-store
        # domain) instead of silently mixing results.
        cache = tmp_path / "mismatch"
        shutil.copytree(clean["cache"], cache)
        done = [
            p for p in _journal_paths(cache)
            if p.name.endswith(".done")
        ]
        run_id = done[0].name[: -len(".done")]
        result = _run_sweep(
            cache,
            extra_args=["--seed", "7", "--resume", run_id],
        )
        assert result.returncode == 66, result.stderr
        assert "identity" in result.stderr

    def test_finished_run_reruns_from_caches(self, clean, tmp_path):
        # A second invocation over a sealed cache recomputes nothing:
        # no simulation, same report, a second sealed journal.
        cache = tmp_path / "again"
        shutil.copytree(clean["cache"], cache)
        again = _run_sweep(cache)
        assert again.returncode == 0, again.stderr
        assert again.stdout == clean["stdout"]
        assert _simulated_count(again.stderr) == 0
        assert _tree_digest(cache) == clean["tree"]
