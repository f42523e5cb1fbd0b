"""Unit tests for the crash-consistency layer.

Covers the two modules of the checkpointing stack bottom-up:
:mod:`repro.resilience.checkpoint` (atomic writes, litter collection,
quarantine pruning, canonical pickling, graceful shutdown) and
:mod:`repro.resilience.journal` (framed write-ahead records, torn-tail
replay, run-id allocation, resume semantics).  The end-to-end
kill-anywhere property lives in
``tests/integration/test_checkpoint_resume.py``; these tests pin the
contracts each piece provides on its own.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.common.errors import InterruptedRunError, StoreCorruptError
from repro.resilience import checkpoint, faults, journal
from repro.resilience.checkpoint import (
    GracefulShutdown,
    atomic_write_bytes,
    atomic_write_json,
    canonicalize,
    check_shutdown,
    collect_tmp_litter,
    current_shutdown,
    prune_quarantine,
    request_shutdown,
    run_interrupted,
)
from repro.resilience.journal import (
    DONE_SUFFIX,
    WAL_SUFFIX,
    Journal,
    RunCheckpoint,
    identity_digest,
    latest_run_id,
    replay,
)


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


def _dead_pid():
    """A pid guaranteed to belong to no live process (a reaped child)."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


class TestAtomicWrites:
    def test_writes_bytes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "deep" / "entry.bin"
        out = atomic_write_bytes(target, b"payload")
        assert out == target
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.rglob("*.tmp.*")) == []

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "entry.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_json_round_trip(self, tmp_path):
        import json

        target = tmp_path / "report.json"
        atomic_write_json(target, {"b": 2, "a": 1}, sort_keys=True)
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_fsync_off_still_atomic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FSYNC", "0")
        target = tmp_path / "entry.bin"
        atomic_write_bytes(target, b"data")
        assert target.read_bytes() == b"data"
        assert list(tmp_path.rglob("*.tmp.*")) == []


class TestTmpLitter:
    def test_dead_writer_litter_removed(self, tmp_path):
        litter = tmp_path / ("entry.pkl.tmp.%d" % _dead_pid())
        litter.write_bytes(b"half a frame")
        keep = tmp_path / "entry.pkl"
        keep.write_bytes(b"fine")
        assert collect_tmp_litter(tmp_path) == 1
        assert not litter.exists()
        assert keep.exists()

    def test_live_writer_fresh_litter_kept(self, tmp_path):
        # A pid that is certainly alive: our own.  Another *live*
        # process's fresh temp file must not be stolen mid-write; a
        # process reuses the collector only at startup, where its own
        # pid cannot have an in-flight write, so own-pid litter goes.
        proc = subprocess.Popen([sys.executable, "-c",
                                 "import time; time.sleep(30)"])
        try:
            litter = tmp_path / ("entry.pkl.tmp.%d" % proc.pid)
            litter.write_bytes(b"in flight")
            assert collect_tmp_litter(tmp_path) == 0
            assert litter.exists()
        finally:
            proc.kill()
            proc.wait()

    def test_recurses_into_subdirectories(self, tmp_path):
        nested = tmp_path / "traces" / "sub"
        nested.mkdir(parents=True)
        (nested / ("x.pkl.tmp.%d" % _dead_pid())).write_bytes(b"junk")
        assert collect_tmp_litter(tmp_path) == 1

    def test_missing_root_is_zero(self, tmp_path):
        assert collect_tmp_litter(tmp_path / "nope") == 0


class TestQuarantinePrune:
    def _seed(self, qdir, n, base_age=0.0):
        qdir.mkdir(parents=True, exist_ok=True)
        now = time.time()
        paths = []
        for index in range(n):
            path = qdir / ("entry-%d.pkl" % index)
            path.write_bytes(b"damaged")
            (qdir / (path.name + ".reason.txt")).write_text("why\n")
            # Distinct mtimes, newest last.
            age = base_age + (n - index)
            os.utime(path, (now - age, now - age))
            paths.append(path)
        return paths

    def _entries(self, qdir):
        return sorted(
            p.name for p in qdir.iterdir()
            if not p.name.endswith(".reason.txt")
        )

    def test_count_cap_keeps_newest(self, tmp_path):
        qdir = tmp_path / "quarantine"
        self._seed(qdir, 5)
        assert prune_quarantine(qdir, keep=2, max_age_s=3600) == 3
        assert self._entries(qdir) == ["entry-3.pkl", "entry-4.pkl"]
        # Reason notes are pruned with their entries.
        assert not (qdir / "entry-0.pkl.reason.txt").exists()
        assert (qdir / "entry-4.pkl.reason.txt").exists()

    def test_age_cap_prunes_even_under_count(self, tmp_path):
        qdir = tmp_path / "quarantine"
        self._seed(qdir, 3, base_age=7200.0)
        assert prune_quarantine(qdir, keep=10, max_age_s=3600) == 3
        assert self._entries(qdir) == []

    def test_missing_directory_is_zero(self, tmp_path):
        assert prune_quarantine(tmp_path / "quarantine") == 0

    def test_env_defaults_respected(self, tmp_path, monkeypatch):
        # Without arguments the module-level defaults apply.
        qdir = tmp_path / "quarantine"
        self._seed(qdir, 4)
        monkeypatch.setattr(checkpoint, "QUARANTINE_KEEP", 1)
        assert prune_quarantine(qdir) == 3
        assert len(self._entries(qdir)) == 1


@dataclasses.dataclass
class _Point:
    label: str
    values: tuple


class TestCanonicalize:
    def test_equal_graphs_pickle_identically(self):
        # Two semantically equal structures built so that one shares a
        # string object and the other holds equal-but-distinct copies --
        # the exact shape a resumed run produces when it mixes fresh
        # objects with separately unpickled slices.
        shared = "".join(["det", "ector"])
        copy_one = pickle.loads(pickle.dumps(shared))
        copy_two = pickle.loads(pickle.dumps(shared))
        a = {"x": (shared, shared), "y": [shared]}
        b = {"x": (copy_one, copy_one), "y": [copy_two]}
        assert a == b
        assert pickle.dumps(a) != pickle.dumps(b)  # the disease
        assert pickle.dumps(canonicalize(a)) == pickle.dumps(
            canonicalize(b)
        )

    def test_dataclasses_rebuilt(self):
        point = _Point(label="".join(["a", "b"]), values=("x", "x"))
        clone = canonicalize(point)
        assert clone == point
        assert isinstance(clone, _Point)
        assert pickle.dumps(clone) == pickle.dumps(canonicalize(
            pickle.loads(pickle.dumps(point))
        ))

    def test_scalars_and_sets_pass_through(self):
        assert canonicalize(7) == 7
        assert canonicalize(None) is None
        assert canonicalize({1, 2}) == {1, 2}
        assert canonicalize(frozenset({"a"})) == frozenset({"a"})


class TestGracefulShutdown:
    def test_request_then_check_raises_resumable(self):
        with GracefulShutdown(install=False) as shutdown:
            assert not shutdown.requested
            check_shutdown("run-1")  # no-op before the request
            shutdown.request()
            assert run_interrupted()
            with pytest.raises(InterruptedRunError) as excinfo:
                check_shutdown("run-1")
            assert excinfo.value.run_id == "run-1"
            assert "--resume run-1" in str(excinfo.value)

    def test_request_shutdown_targets_active_context(self):
        with GracefulShutdown(install=False) as shutdown:
            request_shutdown()
            assert shutdown.requested

    def test_request_shutdown_without_context_raises(self):
        assert current_shutdown() is None
        with pytest.raises(InterruptedRunError):
            request_shutdown("orphan-run")

    def test_contexts_nest_innermost_wins(self):
        with GracefulShutdown(install=False) as outer:
            with GracefulShutdown(install=False) as inner:
                assert current_shutdown() is inner
                request_shutdown()
                assert inner.requested and not outer.requested
            assert current_shutdown() is outer


def _ident():
    return ("unit-test-run", 42)


class TestJournal:
    def test_begin_and_transitions_replay(self, tmp_path):
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        task = ckpt.task("fft/run0")
        task.scheduled()
        task.recorded()
        task.committed()
        ckpt.close()

        wal = ckpt.journal_dir / (ckpt.run_id + WAL_SUFFIX)
        state = replay(wal)
        assert state.run_id == ckpt.run_id
        assert state.identity == identity_digest(_ident())
        assert not state.finished
        replayed = state.task("fft/run0")
        assert replayed.scheduled and replayed.recorded
        assert replayed.committed
        assert state.n_records == 4
        assert "1 committed" in state.summary()

    def test_old_analyzed_records_are_skipped(self, tmp_path):
        # Journals written while runs logged one ``analyzed`` record per
        # detector config still replay and resume: the unknown record
        # type is skipped, the records around it still count.
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        task = ckpt.task("fft/run0")
        task.scheduled()
        task.recorded()
        ckpt._append({
            "type": "analyzed", "task": "fft/run0", "config": "D=4",
        })
        ckpt.interrupt()

        resumed = RunCheckpoint.open(tmp_path, identity=_ident())
        assert resumed.resumed and resumed.run_id == ckpt.run_id
        assert resumed.state.n_records == 4
        state = resumed.state.task("fft/run0")
        assert state.scheduled and state.recorded and not state.committed
        resumed.task("fft/run0").committed()
        assert resumed.state.n_records == 5
        resumed.close()

    def test_transitions_are_idempotent(self, tmp_path):
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        task = ckpt.task("t")
        task.scheduled()
        before = ckpt.state.n_records
        task.scheduled()
        task.scheduled()
        assert ckpt.state.n_records == before
        ckpt.close()

    def test_finish_seals_to_done(self, tmp_path):
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        ckpt.task("t").committed()
        ckpt.finish()
        done = ckpt.journal_dir / (ckpt.run_id + DONE_SUFFIX)
        assert done.exists()
        assert not (
            ckpt.journal_dir / (ckpt.run_id + WAL_SUFFIX)
        ).exists()
        assert replay(done).finished

    def test_resume_picks_up_state(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, identity=_ident())
        task = first.task("t")
        task.scheduled()
        task.recorded()
        first.interrupt()  # the drain path: flush, no end record

        second = RunCheckpoint.open(tmp_path, identity=_ident())
        assert second.resumed
        assert second.run_id == first.run_id
        assert second.stats["resumed"] == 1
        state = second.state.task("t")
        assert state.recorded and not state.committed
        # Replayed transitions append nothing new.
        n_before = second.state.n_records
        resumed_task = second.task("t")
        resumed_task.scheduled()
        resumed_task.recorded()
        assert second.state.n_records == n_before
        resumed_task.committed()  # fresh work still journals
        assert second.state.n_records == n_before + 1
        second.close()

    def test_fresh_identity_never_resumes(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, identity=_ident())
        first.task("t").scheduled()
        first.interrupt()
        other = RunCheckpoint.open(
            tmp_path, identity=("different", 7)
        )
        assert not other.resumed
        assert other.run_id != first.run_id
        other.close()

    def test_resume_fresh_ignores_existing_wal(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, identity=_ident())
        first.task("t").scheduled()
        first.interrupt()
        fresh = RunCheckpoint.open(
            tmp_path, identity=_ident(), resume="fresh"
        )
        assert not fresh.resumed
        assert fresh.run_id != first.run_id
        fresh.close()

    def test_explicit_resume_of_wrong_identity_refused(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, identity=_ident())
        first.task("t").scheduled()
        first.interrupt()
        with pytest.raises(StoreCorruptError):
            RunCheckpoint.open(
                tmp_path,
                identity=("a different run",),
                resume=first.run_id,
            )

    def test_explicit_resume_of_missing_run_refused(self, tmp_path):
        with pytest.raises(StoreCorruptError):
            RunCheckpoint.open(
                tmp_path, identity=_ident(), resume="cafebabe-0001"
            )

    def test_resuming_finished_run_reopens_done(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, identity=_ident())
        first.task("t").committed()
        first.finish()
        again = RunCheckpoint.open(
            tmp_path, identity=_ident(), resume=first.run_id
        )
        assert again.resumed
        assert again.state.task("t").committed
        assert (
            again.journal_dir / (again.run_id + WAL_SUFFIX)
        ).exists()
        again.finish()

    def test_run_ids_sequence_per_identity(self, tmp_path):
        ids = []
        for _ in range(3):
            ckpt = RunCheckpoint.open(
                tmp_path, identity=_ident(), resume="fresh"
            )
            ids.append(ckpt.run_id)
            ckpt.finish()
        prefix = identity_digest(_ident())[:8]
        assert ids == ["%s-%04d" % (prefix, n) for n in (1, 2, 3)]

    def test_latest_run_id(self, tmp_path):
        assert latest_run_id(tmp_path, _ident()) is None
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        ckpt.task("t").scheduled()
        ckpt.interrupt()
        assert latest_run_id(tmp_path, _ident()) == ckpt.run_id

    def test_torn_tail_replays_clean_prefix(self, tmp_path):
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        task = ckpt.task("t")
        task.scheduled()
        task.recorded()
        ckpt.close()
        wal = ckpt.journal_dir / (ckpt.run_id + WAL_SUFFIX)
        data = wal.read_bytes()
        # Tear the last record mid-frame, as a power cut would.
        wal.write_bytes(data[:-7])
        state = replay(wal)
        assert state.task("t").scheduled
        assert not state.task("t").recorded  # the torn record is gone
        # And a resume over the torn journal just redoes that step.
        resumed = RunCheckpoint.open(tmp_path, identity=_ident())
        assert resumed.resumed
        assert not resumed.state.task("t").recorded
        resumed.close()

    def test_garbage_journal_is_ignored(self, tmp_path):
        jdir = RunCheckpoint.journal_dir_for(tmp_path)
        jdir.mkdir(parents=True)
        prefix = identity_digest(_ident())[:8]
        (jdir / (prefix + "-0001" + WAL_SUFFIX)).write_bytes(
            b"not a framed journal at all"
        )
        ckpt = RunCheckpoint.open(tmp_path, identity=_ident())
        # Nothing replayable: starts fresh (and does not crash).
        assert not ckpt.resumed
        ckpt.close()

    def test_unknown_record_types_skipped(self, tmp_path):
        from repro.resilience.journal import _encode_record

        path = tmp_path / "j.wal"
        path.write_bytes(
            _encode_record({"type": "begin", "run_id": "x-0001",
                            "identity": "x" * 16, "kind": "run"})
            + _encode_record({"type": "hologram", "task": "t"})
            + _encode_record({"type": "committed", "task": "t"})
        )
        state = replay(path)
        assert state.n_records == 3
        assert state.task("t").committed

    def test_finished_journals_pruned_at_startup(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(journal, "JOURNAL_KEEP", 2)
        for _ in range(4):
            ckpt = RunCheckpoint.open(
                tmp_path, identity=_ident(), resume="fresh"
            )
            ckpt.finish()
        ckpt = RunCheckpoint.open(
            tmp_path, identity=_ident(), resume="fresh"
        )
        # Pruning runs at every open, so each startup trims at most one
        # journal over the cap; what matters is the steady-state bound.
        assert ckpt.stats["journals_pruned"] == 1
        done = [
            p for p in ckpt.journal_dir.iterdir()
            if p.name.endswith(DONE_SUFFIX)
        ]
        assert len(done) <= 2
        ckpt.finish()

    def test_sigterm_drain_fault_raises_without_context(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:1")
        faults.arm()
        journal = Journal(tmp_path / "j.wal")
        with pytest.raises(InterruptedRunError):
            journal.append({"type": "begin"})
        journal.close()
        # The record itself was flushed before the fault fired: the
        # interruption is injected *after* durability, like SIGTERM.
        assert replay(tmp_path / "j.wal").n_records == 1

    def test_sigterm_drain_fault_flags_active_context(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:2")
        faults.arm()
        journal = Journal(tmp_path / "j.wal")
        with GracefulShutdown(install=False) as shutdown:
            journal.append({"type": "begin"})
            assert not shutdown.requested
            journal.append({"type": "scheduled", "task": "t"})
            assert shutdown.requested
        journal.close()
