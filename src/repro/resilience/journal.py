"""The per-run write-ahead journal and the checkpointed-run facade.

A campaign sweep is hours of deterministic work; the journal makes any
interruption of the *driver* process -- ``kill -9``, OOM, SIGTERM,
power loss -- cost at most the stage tasks in flight.  Each run gets an
append-only journal file under ``<root>/journal/`` whose records log
every task's lifecycle::

    begin -> scheduled(task) -> recorded(task) -> committed(task) -> end

for one task per workload and one per injected run
(:func:`repro.experiments.pipeline.journal_hooks` writes them), so a
resumed sweep re-records no durable run and re-analyzes no run whose
outcome bundle is durable.

Records reuse the store's ``CORDSTOR1`` checksummed framing
(:func:`repro.trace.store.frame_payload`) around a canonical-JSON body,
concatenated in append order.  Replay walks the file front to back and
*stops* at the first torn or checksum-failing record: a crash mid-append
(or a power cut that ate the buffered tail) silently costs the torn
suffix, never the run.

The division of labor that makes resume safe:

* the **stores** are the source of truth -- every artifact (recorded
  trace, per-run outcome bundle, campaign cache entry) is written
  atomically and keyed by run identity, so redoing a
  step is always correct and a completed step is always reusable;
* the **journal** is the recovery index -- it names the run, records
  how far it got, and provides the transition points the chaos kill
  matrix exercises.  Losing journal records can only cause redundant
  (bit-identical) recomputation, never wrong results.

:class:`RunCheckpoint` packages both: run-id allocation, auto-resume of
the latest matching journal, startup garbage collection (orphaned
``*.tmp.*`` files, finished/stale journals, quarantine pruning), and
the per-task :class:`TaskCheckpoint` handles the campaign layer calls.
See ``docs/resilience.md`` section 6.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, Iterator, Optional, Tuple

from repro.common.errors import StoreCorruptError
from repro.resilience import checkpoint, faults
from repro.trace.store import frame_payload, unframe_payload

logger = logging.getLogger("repro.resilience.journal")

#: Journal layout version, embedded in every ``begin`` record.
JOURNAL_SCHEMA = 1

#: Suffixes: an in-flight (resumable) journal vs a finished one.
WAL_SUFFIX = ".wal"
DONE_SUFFIX = ".done"

_RUN_ID_RE = re.compile(r"^(?P<ident>[0-9a-f]{8})-(?P<seq>\d{4})$")


#: Finished journals kept around.
JOURNAL_KEEP = 8


def identity_digest(description) -> str:
    """Digest a run's identity (everything that determines its results)."""
    return hashlib.sha256(repr(description).encode()).hexdigest()[:16]


def _encode_record(record: Dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return frame_payload(body.encode("utf-8"))


#: Public names for the framed-record codec: the campaign service's job
#: WAL (:mod:`repro.service.jobs`) reuses the exact framing and replay
#: tolerance of the sweep journal rather than inventing a second format.
encode_record = _encode_record


def _iter_records(data: bytes, what: str) -> Iterator[Dict]:
    """Yield sound records front to back; stop at the first torn one."""
    offset = 0
    index = 0
    while offset < len(data):
        # Frames are self-delimiting: magic | u64 length | digest | body.
        # A record that fails any frame check is the torn tail a crash
        # or power cut left behind; everything before it is trustworthy.
        head = data[offset:]
        try:
            length = int.from_bytes(head[9:17], "little")
            record_len = 9 + 8 + 32 + length
            body = unframe_payload(
                head[:record_len], "%s record %d" % (what, index)
            )
            record = json.loads(body.decode("utf-8"))
        except (StoreCorruptError, ValueError, UnicodeDecodeError):
            logger.warning(
                "%s: torn tail at record %d (byte %d); replay stops here",
                what, index, offset,
            )
            return
        if not isinstance(record, dict) or "type" not in record:
            logger.warning(
                "%s: malformed record %d; replay stops here", what, index
            )
            return
        yield record
        offset += record_len
        index += 1


#: Public alias, paired with :data:`encode_record` (defined above).
iter_records = _iter_records


@dataclass
class TaskState:
    """Replayed journal view of one task's progress."""

    scheduled: bool = False
    recorded: bool = False
    committed: bool = False


@dataclass
class JournalState:
    """The replayed view of one journal file."""

    run_id: Optional[str] = None
    identity: Optional[str] = None
    kind: Optional[str] = None
    finished: bool = False
    tasks: Dict[str, TaskState] = field(default_factory=dict)
    n_records: int = 0

    def task(self, name: str) -> TaskState:
        if name not in self.tasks:
            self.tasks[name] = TaskState()
        return self.tasks[name]

    def summary(self) -> str:
        committed = sum(1 for t in self.tasks.values() if t.committed)
        return "%d task(s) journaled, %d committed" % (
            len(self.tasks), committed,
        )


def replay(path: os.PathLike) -> JournalState:
    """Rebuild a :class:`JournalState` from a journal file on disk."""
    path = Path(path)
    state = JournalState()
    try:
        data = path.read_bytes()
    except OSError:
        return state
    for record in _iter_records(data, "journal %s" % path.name):
        state.n_records += 1
        rtype = record.get("type")
        if rtype == "begin":
            state.run_id = record.get("run_id")
            state.identity = record.get("identity")
            state.kind = record.get("kind")
        elif rtype == "scheduled":
            state.task(record["task"]).scheduled = True
        elif rtype == "recorded":
            state.task(record["task"]).recorded = True
        elif rtype == "committed":
            state.task(record["task"]).committed = True
        elif rtype == "end":
            state.finished = True
        # Unknown record types are skipped: a newer writer's journal
        # still resumes on an older reader (it just redoes more work),
        # and an older writer's per-config ``analyzed`` records are
        # ignored.
    return state


class Journal:
    """One append-only journal file (records framed, replay-tolerant).

    Appends go to a buffered file handle and are flushed (to the OS)
    after every record; :meth:`sync` additionally ``fsync``\\ s at
    durability points (task commits, drains, finish).  The chaos
    driver-level faults hook the append path: ``power_cut`` dies
    *before* the flush (the record is lost with the buffer),
    ``driver_kill`` dies right after it, and ``sigterm_drain`` injects
    a graceful-shutdown request.
    """

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._fh: Optional[IO[bytes]] = None

    def _handle(self) -> IO[bytes]:
        if self._fh is None or self._fh.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab")
        return self._fh

    def append(self, record: Dict, durable: bool = False) -> None:
        fh = self._handle()
        fh.write(_encode_record(record))
        if faults.active():
            self._chaos(fh)
        fh.flush()
        if durable and checkpoint.fsync_enabled():
            os.fsync(fh.fileno())
        if faults.active():
            self._chaos_flushed()

    def _chaos(self, fh: IO[bytes]) -> None:
        """Pre-flush fault points: the record may still be in the buffer."""
        if faults.tick("power_cut"):
            # A power loss: whatever sits in the userspace buffer is
            # gone.  os._exit skips interpreter cleanup (and flushing).
            os._exit(faults.POWER_CUT_EXIT_CODE)

    def _chaos_flushed(self) -> None:
        """Post-flush fault points: the record just became visible."""
        if faults.tick("driver_kill"):
            os._exit(faults.DRIVER_KILL_EXIT_CODE)
        if faults.tick("sigterm_drain"):
            checkpoint.request_shutdown()

    def sync(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            if checkpoint.fsync_enabled():
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            self._fh.close()
        self._fh = None


class TaskCheckpoint:
    """One task's journal handle: idempotent lifecycle transitions.

    Methods are no-ops when the replayed state already covers the
    transition, so a resumed run never duplicates records -- and every
    method is a shutdown safe point (:func:`checkpoint.check_shutdown`).
    """

    def __init__(self, owner: "RunCheckpoint", name: str):
        self._owner = owner
        self.name = name
        self.state = owner.state.task(name)

    def scheduled(self) -> None:
        self._owner.check()
        if not self.state.scheduled:
            self._owner._append({"type": "scheduled", "task": self.name})
            self.state.scheduled = True

    def recorded(self) -> None:
        self._owner.check()
        if not self.state.recorded:
            self._owner._append({"type": "recorded", "task": self.name})
            self.state.recorded = True

    def committed(self) -> None:
        # No shutdown check here: by commit time the work is already
        # done and durable, so even a draining run gets credit for it.
        if not self.state.committed:
            self._owner._append(
                {"type": "committed", "task": self.name}, durable=True
            )
            self.state.committed = True


class RunCheckpoint:
    """A resumable run: journal + startup GC + task handles.

    Open with :meth:`open` -- never construct directly.  ``stats``
    counts the housekeeping performed at startup (``tmp_pruned``,
    ``journals_pruned``, ``quarantine_pruned``) plus ``resumed`` (1 when
    an earlier journal was picked up) so nothing happens silently.
    """

    def __init__(self, root: Path, run_id: str, identity: str,
                 kind: str, state: JournalState, resumed: bool):
        self.root = root
        self.run_id = run_id
        self.identity = identity
        self.kind = kind
        self.state = state
        self.resumed = resumed
        self.stats: Counter = Counter()
        self.journal = Journal(self.journal_dir / (run_id + WAL_SUFFIX))
        self._finished = False

    # -- construction ---------------------------------------------------------

    @staticmethod
    def journal_dir_for(root: os.PathLike) -> Path:
        return Path(root) / "journal"

    @property
    def journal_dir(self) -> Path:
        return self.journal_dir_for(self.root)

    @classmethod
    def open(
        cls,
        root: os.PathLike,
        identity,
        kind: str = "run",
        resume: Optional[str] = "auto",
        quarantine_dirs: Tuple[os.PathLike, ...] = (),
    ) -> "RunCheckpoint":
        """Open (and possibly resume) a checkpointed run under ``root``.

        ``identity`` is anything ``repr``-able that pins the run's
        results (config, seeds, workloads); it is digested and must
        match for a journal to be resumed.  ``resume`` is ``"auto"``
        (pick up the latest unfinished journal with this identity, else
        start fresh -- the default), ``"fresh"`` (always start a new
        journal), or an explicit run id.  Startup also collects the
        litter a dead process left: orphaned ``*.tmp.*`` files, old
        finished journals, and oversized quarantine directories.
        """
        root = Path(root)
        ident = identity_digest(identity)
        jdir = cls.journal_dir_for(root)
        stats = Counter()
        stats["tmp_pruned"] = checkpoint.collect_tmp_litter(root)
        stats["journals_pruned"] = cls._prune_journals(jdir)
        for qdir in quarantine_dirs:
            stats["quarantine_pruned"] += checkpoint.prune_quarantine(qdir)

        state = JournalState()
        run_id = None
        resumed = False
        if resume != "fresh":
            candidate = cls._pick_journal(jdir, ident, resume)
            if candidate is not None:
                replayed = replay(candidate)
                if replayed.identity == ident:
                    state = replayed
                    run_id = candidate.name[: -len(WAL_SUFFIX)] \
                        if candidate.name.endswith(WAL_SUFFIX) \
                        else candidate.name[: -len(DONE_SUFFIX)]
                    resumed = True
                    if candidate.name.endswith(DONE_SUFFIX):
                        # Resuming a finished run re-opens its journal
                        # as in-flight; everything is committed, so the
                        # run will just replay its caches and finish.
                        os.replace(
                            candidate, jdir / (run_id + WAL_SUFFIX)
                        )
                        state.finished = False
                elif resume not in (None, "auto"):
                    raise StoreCorruptError(
                        "journal %s does not match this run's identity "
                        "(journal: %s, run: %s) -- refusing to resume "
                        "into different results"
                        % (candidate.name, replayed.identity, ident)
                    )
        if run_id is None:
            run_id = cls._new_run_id(jdir, ident)

        ckpt = cls(root, run_id, ident, kind, state, resumed)
        ckpt.stats.update(stats)
        if resumed:
            ckpt.stats["resumed"] = 1
            logger.info(
                "resuming run %s: %s", run_id, state.summary()
            )
        if state.n_records == 0:
            ckpt._append({
                "type": "begin",
                "schema": JOURNAL_SCHEMA,
                "run_id": run_id,
                "identity": ident,
                "kind": kind,
            })
        return ckpt

    @staticmethod
    def _prune_journals(jdir: Path, keep: Optional[int] = None) -> int:
        """Drop old finished journals beyond the keep-count."""
        if not jdir.is_dir():
            return 0
        if keep is None:
            keep = JOURNAL_KEEP
        done = sorted(
            (p for p in jdir.iterdir() if p.name.endswith(DONE_SUFFIX)),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        pruned = 0
        for path in done[keep:]:
            try:
                path.unlink()
                pruned += 1
            except OSError:
                pass
        return pruned

    @staticmethod
    def _pick_journal(
        jdir: Path, ident: str, resume: Optional[str]
    ) -> Optional[Path]:
        if resume not in (None, "auto"):
            for suffix in (WAL_SUFFIX, DONE_SUFFIX):
                path = jdir / (resume + suffix)
                if path.exists():
                    return path
            raise StoreCorruptError(
                "no journal named %r under %s (nothing to resume)"
                % (resume, jdir)
            )
        if not jdir.is_dir():
            return None
        # Auto-resume: the latest unfinished journal for this identity.
        # Finished journals are not auto-resumed -- a fresh invocation
        # of a finished run should run fresh (its caches make it fast).
        candidates = [
            p for p in jdir.iterdir()
            if p.name.endswith(WAL_SUFFIX)
            and p.name.startswith(ident[:8] + "-")
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.stat().st_mtime)

    @staticmethod
    def _new_run_id(jdir: Path, ident: str) -> str:
        """``<identity[:8]>-<seq>``: readable, sortable, timestamp-free."""
        seq = 0
        if jdir.is_dir():
            for path in jdir.iterdir():
                name = path.name
                for suffix in (WAL_SUFFIX, DONE_SUFFIX):
                    if name.endswith(suffix):
                        name = name[: -len(suffix)]
                        break
                match = _RUN_ID_RE.match(name)
                if match and match.group("ident") == ident[:8]:
                    seq = max(seq, int(match.group("seq")))
        return "%s-%04d" % (ident[:8], seq + 1)

    # -- journal plumbing -----------------------------------------------------

    def _append(self, record: Dict, durable: bool = False) -> None:
        if self._finished:
            return
        self.journal.append(record, durable=durable)
        self.state.n_records += 1

    def task(self, name: str) -> TaskCheckpoint:
        return TaskCheckpoint(self, name)

    def check(self) -> None:
        """Shutdown safe point: raise (resumable) if a drain was requested."""
        checkpoint.check_shutdown(self.run_id)

    def interrupt(self) -> None:
        """Flush everything for a resumable exit (drain path)."""
        self.journal.sync()
        self.journal.close()

    def finish(self) -> None:
        """Seal the journal: ``end`` record, fsync, rename to ``.done``."""
        if self._finished:
            return
        self._append({"type": "end"}, durable=True)
        self.journal.sync()
        self.journal.close()
        self._finished = True
        wal = self.journal_dir / (self.run_id + WAL_SUFFIX)
        try:
            os.replace(wal, self.journal_dir / (self.run_id + DONE_SUFFIX))
        except OSError as exc:
            logger.warning("could not seal journal %s: %s", wal, exc)

    def close(self) -> None:
        self.journal.close()


def latest_run_id(root: os.PathLike, identity) -> Optional[str]:
    """The newest unfinished run id for ``identity`` under ``root``."""
    jdir = RunCheckpoint.journal_dir_for(root)
    ident = identity_digest(identity)
    try:
        candidate = RunCheckpoint._pick_journal(jdir, ident, None)
    except StoreCorruptError:
        return None
    if candidate is None:
        return None
    return candidate.name[: -len(WAL_SUFFIX)]
