"""Job model and the job-state write-ahead log of the campaign service.

A *job* is one accepted campaign spec from one tenant.  Its lifecycle is
a straight line through five states::

    accepted -> sharded -> recording -> analyzing -> committed

plus the terminal side-exits ``failed`` and ``cancelled``.  Every
transition is appended to a single service-wide WAL
(``<root>/service/jobs.wal``) using the journal framing from
:mod:`repro.resilience.journal`, with the ``accepted`` record carrying
the full spec -- so a server killed at *any* instant restarts, replays
the WAL, and re-enqueues every non-terminal job from its durable spec.
The division of labor mirrors the sweep journal: the WAL is only the
recovery *index*; the content-addressed trace store is the source of
truth (recorded traces, outcome bundles, committed result documents are
all keyed and atomic), so replaying a transition never changes results,
only skips work.

:class:`ServiceJournal` extends the journal's chaos hooks with the
``svc_kill`` fault (exit code 89 right after a WAL transition is
flushed), which is what lets the recovery test matrix kill the real
server at every transition in turn.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.injection.campaign import CampaignConfig
from repro.resilience import faults
from repro.resilience.journal import Journal, _encode_record, _iter_records
from repro.workloads.base import WorkloadParams

#: WAL layout version, embedded in the ``svc-begin`` record.
SERVICE_WAL_SCHEMA = 1

# -- job states ---------------------------------------------------------------

ACCEPTED = "accepted"
SHARDED = "sharded"
RECORDING = "recording"
ANALYZING = "analyzing"
COMMITTED = "committed"
FAILED = "failed"
CANCELLED = "cancelled"

#: The happy path, in order (the recovery matrix kills at each of these).
LIFECYCLE = (ACCEPTED, SHARDED, RECORDING, ANALYZING, COMMITTED)

#: States a restarted server must resume (re-enqueue and re-execute).
RESUMABLE = frozenset((ACCEPTED, SHARDED, RECORDING, ANALYZING))

#: States that end a job.
TERMINAL = frozenset((COMMITTED, FAILED, CANCELLED))


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that pins one campaign's results (and its store keys).

    Field-for-field the knobs of ``cord-repro inject``: identical
    values here and there must yield byte-identical reports, which is
    the service's core contract.
    """

    workload: str
    runs: int = 10
    seed: int = 2006
    scale: float = 1.0
    switch_probability: float = 0.1

    def digest(self) -> str:
        """Content address of this spec (job ids, result dedup)."""
        ident = repr((
            self.workload, self.runs, self.seed, self.scale,
            self.switch_probability,
        ))
        return hashlib.sha256(ident.encode()).hexdigest()[:16]

    def workload_params(self) -> WorkloadParams:
        return WorkloadParams(scale=self.scale)

    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig(
            n_runs=self.runs,
            base_seed=self.seed,
            switch_probability=self.switch_probability,
        )

    def campaign(self):
        """The :class:`~repro.experiments.pipeline.Campaign` (and so the
        committed-entry key) of this spec."""
        # Imported here, so a client loads no experiment code.
        from repro.experiments.pipeline import Campaign

        return Campaign(
            self.workload, self.workload_params(), self.campaign_config()
        )

    def to_wire(self) -> Dict:
        return {
            "workload": self.workload,
            "runs": self.runs,
            "seed": self.seed,
            "scale": self.scale,
            "switch_probability": self.switch_probability,
        }

    @classmethod
    def from_wire(cls, fields: Dict) -> "CampaignSpec":
        return cls(
            workload=fields["workload"],
            runs=int(fields["runs"]),
            seed=int(fields["seed"]),
            scale=float(fields["scale"]),
            switch_probability=float(fields["switch_probability"]),
        )


@dataclass
class Job:
    """One accepted campaign job (in-memory view; the WAL is durable)."""

    job_id: str
    tenant: str
    spec: CampaignSpec
    state: str = ACCEPTED
    deadline_s: Optional[float] = None
    error: Optional[str] = None
    detail: str = ""
    resumed: bool = False
    n_runs: int = 0
    sync_instances: int = 0
    runs_done: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    #: Set by the executor thread as runs complete, read by streamers:
    #: ``(run_index, summary dict)`` in emission order.
    run_events: List[Tuple[int, Dict]] = field(default_factory=list)
    report: Optional[str] = None

    def __post_init__(self):
        self.n_runs = self.spec.runs
        self._stop = threading.Event()
        self.stop_reason: Optional[str] = None

    # -- cooperative interruption (cancel / deadline / drain) ----------

    def interrupt(self, reason: str) -> None:
        """Ask the executor to stop at its next safe point."""
        if self.stop_reason is None:
            self.stop_reason = reason
        self._stop.set()

    def should_stop(self) -> bool:
        return self._stop.is_set()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def status_fields(self) -> Dict:
        fields_out = {
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "spec": self.spec.to_wire(),
            "runs_done": self.runs_done,
            "n_runs": self.n_runs,
            "resumed": self.resumed,
        }
        if self.sync_instances:
            fields_out["sync_instances"] = self.sync_instances
        if self.error:
            fields_out["error"] = self.error
        if self.detail:
            fields_out["detail"] = self.detail
        return fields_out


class ServiceJournal(Journal):
    """The job WAL's journal handle, with the server kill fault wired in.

    Inherits the framed append path (and the driver-level ``power_cut``
    / ``driver_kill`` / ``sigterm_drain`` hooks -- a server is a driver
    too); adds ``svc_kill``, which hard-exits the server with
    :data:`~repro.resilience.faults.SVC_KILL_EXIT_CODE` right after a
    WAL transition is flushed.  Tick semantics: ``svc_kill:3`` dies at
    exactly the third WAL append of the process.
    """

    def _chaos_flushed(self) -> None:
        super()._chaos_flushed()
        if faults.tick("svc_kill"):
            os._exit(faults.SVC_KILL_EXIT_CODE)


@dataclass
class ReplayedJob:
    """One job's WAL-replayed state (enough to rebuild a :class:`Job`)."""

    job_id: str
    tenant: str = "default"
    spec_fields: Optional[Dict] = None
    state: str = ACCEPTED
    deadline_s: Optional[float] = None
    error: Optional[str] = None
    detail: str = ""
    #: Highest lease epoch seen per task name (``type: "lease"``
    #: records).  Purely observational -- resume re-derives all work
    #: from the store -- but it proves reassignment history survived
    #: the WAL, and the lease tests assert on it.
    lease_epochs: Dict[str, int] = field(default_factory=dict)
    #: Deduped completions recorded for this job (``duplicate`` events).
    duplicate_completions: int = 0


class JobRegistry:
    """The service's job-state WAL: append transitions, replay on boot.

    Thread-safe (executor threads log phase transitions while the event
    loop logs admissions), append-only, torn-tail tolerant: replay stops
    at the first damaged record, which at worst forgets the newest
    transition -- the job then resumes from one state earlier and redoes
    idempotent, store-keyed work.

    Durability: ``accepted`` and every terminal transition fsync
    (losing an *accepted* job would break the no-accepted-job-dropped
    guarantee; losing a mid-flight phase marker costs nothing).
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.path = self.root / "service" / "jobs.wal"
        self.journal = ServiceJournal(self.path)
        self._lock = threading.Lock()
        self._seq = 0
        self._n_records = 0

    # -- replay ---------------------------------------------------------------

    def replay(self) -> Dict[str, ReplayedJob]:
        """Rebuild every journaled job's latest state from the WAL."""
        jobs: Dict[str, ReplayedJob] = {}
        try:
            data = self.path.read_bytes()
        except OSError:
            data = b""
        for record in _iter_records(data, "service WAL"):
            self._n_records += 1
            if record.get("type") == "lease":
                # Lease-epoch records ride along in the same WAL.  They
                # are observational (stores are content-addressed, so
                # resume never needs them to be complete), and a job's
                # lease history without an accepted record is dropped
                # with the job below.
                job_id = record.get("job")
                task = record.get("task")
                epoch = record.get("epoch")
                if not isinstance(job_id, str) or not isinstance(task, str):
                    continue
                replayed = jobs.setdefault(job_id, ReplayedJob(job_id))
                if isinstance(epoch, int) and not isinstance(epoch, bool):
                    replayed.lease_epochs[task] = max(
                        replayed.lease_epochs.get(task, 0), epoch
                    )
                if record.get("event") == "duplicate":
                    replayed.duplicate_completions += 1
                continue
            if record.get("type") != "job":
                continue
            job_id = record.get("job")
            state = record.get("state")
            if not isinstance(job_id, str) or state not in (
                LIFECYCLE + (FAILED, CANCELLED)
            ):
                continue
            replayed = jobs.setdefault(job_id, ReplayedJob(job_id))
            replayed.state = state
            if state == ACCEPTED:
                replayed.tenant = record.get("tenant", "default")
                replayed.spec_fields = record.get("spec")
                replayed.deadline_s = record.get("deadline_s")
            elif state == FAILED:
                replayed.error = record.get("error")
                replayed.detail = record.get("detail", "")
            self._seq = max(self._seq, _job_seq(job_id))
        # Jobs whose accepted record was lost to a torn tail cannot be
        # rebuilt (no spec); drop them -- by construction the reply
        # naming the job was never sent, so no client holds its id.
        return {
            job_id: replayed
            for job_id, replayed in jobs.items()
            if replayed.spec_fields is not None
        }

    def begin(self) -> None:
        """Write the WAL's begin record (fresh logs only)."""
        if self._n_records == 0:
            self._append({
                "type": "svc-begin", "schema": SERVICE_WAL_SCHEMA,
            })

    # -- appends --------------------------------------------------------------

    def allocate_job_id(self, spec: CampaignSpec) -> str:
        with self._lock:
            self._seq += 1
            return "j%04d-%s" % (self._seq, spec.digest()[:8])

    def log_accepted(self, job: Job) -> None:
        self._append({
            "type": "job",
            "job": job.job_id,
            "state": ACCEPTED,
            "tenant": job.tenant,
            "spec": job.spec.to_wire(),
            "deadline_s": job.deadline_s,
        }, durable=True)

    def log_state(self, job_id: str, state: str, **extra) -> None:
        record = {"type": "job", "job": job_id, "state": state}
        record.update(extra)
        self._append(record, durable=state in TERMINAL)

    def log_lease(self, record: Dict) -> None:
        """Append one worker-pool lease event (``type: "lease"``).

        Non-durable: a lost lease record only loses reassignment
        *history*, never results -- duplicate-completion dedup is
        enforced by the in-memory pool and the content-addressed store,
        the WAL records the epochs so a post-mortem (and the replay
        tests) can reconstruct who executed what.
        """
        framed = {"type": "lease"}
        framed.update(record)
        framed["type"] = "lease"
        self._append(framed)

    def _append(self, record: Dict, durable: bool = False) -> None:
        with self._lock:
            self.journal.append(record, durable=durable)
            self._n_records += 1

    def close(self) -> None:
        with self._lock:
            self.journal.sync()
            self.journal.close()


def _job_seq(job_id: str) -> int:
    """The allocation sequence baked into a job id (0 when unparsable)."""
    try:
        return int(job_id.split("-", 1)[0].lstrip("j"))
    except (ValueError, IndexError):
        return 0


def job_from_replay(replayed: ReplayedJob) -> Job:
    """Rebuild an in-memory :class:`Job` from its WAL-replayed state."""
    job = Job(
        job_id=replayed.job_id,
        tenant=replayed.tenant,
        spec=CampaignSpec.from_wire(replayed.spec_fields),
        state=replayed.state,
        deadline_s=replayed.deadline_s,
        error=replayed.error,
        detail=replayed.detail or "",
        resumed=True,
    )
    return job


#: Re-exported record helper (the unit tests frame torn-tail fixtures).
encode_record = _encode_record
