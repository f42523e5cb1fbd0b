"""The server-side worker pool: liveness, leases, failover, fallback.

One :class:`WorkerPool` lives inside a
:class:`~repro.service.server.CampaignServer` and bridges two worlds:
executor threads running :func:`~repro.service.executor.execute_job`
park their stage tasks here (:meth:`WorkerPool.run_tasks`), and the
asyncio protocol loop feeds in worker ops (register / heartbeat / lease
/ complete / fail / deregister).  All state sits behind one condition
variable; every pool operation is a short critical section, so the
asyncio loop never blocks on campaign work.

Robustness model
----------------

*Liveness is heartbeat-based, not connection-based.*  Workers speak
connection-per-request, so a flapping link costs nothing; a worker is
``live`` while it heartbeats, ``suspect`` after ~2 missed beats, and
``dead`` after ``miss_threshold`` intervals of silence -- at which point
every lease it held is reassigned.

*Leases carry deadlines and epochs.*  A lease that outlives
``lease_s`` is expired and its task requeued with a bumped epoch; the
WAL records every grant/expiry/completion (``type: "lease"`` records,
transparent to job replay).  Reassignment is at-least-once by design:
stage tasks are deterministic and store-keyed, so executing a shard
twice produces identical bytes.  The *first* completion of a task wins
-- a late completion from a stalled worker is accepted if the task is
still open (counted ``stale_completions``) and deduped if it is not
(counted ``duplicate_completions``); nothing is ever double-committed.

*Idle workers are woken, not polled.*  Every point where a task can
become leasable -- a job parks or submits tasks, a lease is requeued
(failure, deregistration, deadline, lost worker), or the pool drains --
goes through one wake path: it notifies the condition variable and
calls the ``on_wake`` listener, which the server uses to answer the
``worker_lease`` requests it is holding open.

*Zero workers means local execution.*  :meth:`run_tasks` runs pending
tasks on the calling executor thread whenever no live worker is
attached -- at job start (the server degrades to exactly the single-host
path, no API change) or mid-job (every worker died; the job still
finishes).  ``health`` reports the degradation.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from collections import Counter, OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.env import env_number

HEARTBEAT_ENV = "REPRO_SVC_HEARTBEAT_S"
LEASE_ENV = "REPRO_SVC_LEASE_S"

_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")

#: How long :meth:`WorkerPool.run_tasks` sleeps between wake-ups when it
#: has nothing to do (a backstop -- completions notify the condition).
_WAIT_S = 0.05

#: Consecutive remote failures of one task before the job is failed
#: rather than requeued forever.
_MAX_TASK_FAILURES = 3


class UnknownWorker(KeyError):
    """The worker id names no live worker (dead, or server restarted)."""


class UnknownLease(KeyError):
    """The lease id names no open or retired lease."""


class RemoteTaskError(RuntimeError):
    """A stage task failed remotely more times than the requeue budget."""


class PoolLimits:
    """Worker-pool limits; the heartbeat and lease periods read
    ``REPRO_SVC_HEARTBEAT_S`` and ``REPRO_SVC_LEASE_S`` in
    :meth:`from_env`."""

    def __init__(
        self,
        heartbeat_s: float = 2.0,
        miss_threshold: int = 5,
        lease_s: float = 120.0,
    ):
        self.heartbeat_s = heartbeat_s
        self.miss_threshold = miss_threshold
        self.lease_s = lease_s

    @classmethod
    def from_env(cls) -> "PoolLimits":
        return cls(
            heartbeat_s=env_number(HEARTBEAT_ENV, 2.0, 0.01, float),
            lease_s=env_number(LEASE_ENV, 120.0, 0.05, float),
        )

    def as_fields(self) -> Dict[str, Any]:
        return {
            "heartbeat_s": self.heartbeat_s,
            "miss_threshold": self.miss_threshold,
            "lease_s": self.lease_s,
        }


class _Worker:
    __slots__ = ("worker_id", "name", "pid", "host", "state",
                 "last_seen", "leases", "completed")

    def __init__(self, worker_id: str, name: str, pid: int, host: str,
                 now: float):
        self.worker_id = worker_id
        self.name = name
        self.pid = pid
        self.host = host
        self.state = "live"
        self.last_seen = now
        self.leases: set = set()
        self.completed = 0


class _Lease:
    __slots__ = ("lease_id", "worker_id", "job_id", "task", "epoch",
                 "granted_at", "expires_at")

    def __init__(self, lease_id: str, worker_id: str, job_id: str,
                 task: str, epoch: int, now: float, lease_s: float):
        self.lease_id = lease_id
        self.worker_id = worker_id
        self.job_id = job_id
        self.task = task
        self.epoch = epoch
        self.granted_at = now
        self.expires_at = now + lease_s


class _Run:
    """One executing job's task set (owned by its executor thread)."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.tasks: Dict[str, Any] = {}
        self.pending: deque = deque()
        self.epochs: Dict[str, int] = {}
        self.done: Dict[str, Any] = {}
        self.completions: deque = deque()
        self.failures: Counter = Counter()
        self.error: Optional[str] = None
        self.cancelled = False
        self.stats: Counter = Counter()

    def add(self, name: str, payload: Any) -> None:
        self.tasks[name] = payload
        self.pending.append(name)

    def finished(self) -> bool:
        return (bool(self.tasks)
                and len(self.done) == len(self.tasks)
                and not self.completions)


class WorkerPool:
    """Registry + lease scheduler for remote ``cord-worker`` processes.

    ``lease_log`` (optional) is called with one JSON-safe dict per lease
    event -- the server wires it to the job WAL so lease epochs are
    replayable; ``clock`` is injectable for deterministic tests.
    ``on_wake`` (optional, also settable later) is called under the pool
    lock whenever a task may have become leasable or the pool drained;
    it must be cheap and must not call back into the pool.
    """

    def __init__(
        self,
        limits: Optional[PoolLimits] = None,
        lease_log: Optional[Callable[[Dict[str, Any]], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        on_wake: Optional[Callable[[], None]] = None,
    ):
        self.limits = limits or PoolLimits.from_env()
        self.on_wake = on_wake
        self._lease_log = lease_log
        self._clock = clock
        self._cond = threading.Condition(threading.RLock())
        self._workers: "OrderedDict[str, _Worker]" = OrderedDict()
        self._leases: Dict[str, _Lease] = {}
        self._retired: Dict[str, _Lease] = {}
        self._runs: "OrderedDict[str, _Run]" = OrderedDict()
        self._next_worker = itertools.count(1)
        self._next_lease = itertools.count(1)
        self._rr = 0
        self.stats: Counter = Counter()
        self.draining = False

    # -- worker lifecycle -----------------------------------------------------

    def register(self, name: str = "", pid: int = 0,
                 host: str = "") -> Dict[str, Any]:
        """Attach a worker; returns its id plus the pool's timing knobs."""
        with self._cond:
            suffix = _SAFE.sub("-", name)[:24].strip("-")
            worker_id = "wk%04d%s" % (
                next(self._next_worker), "-" + suffix if suffix else ""
            )
            self._workers[worker_id] = _Worker(
                worker_id, name, pid, host, self._clock()
            )
            self.stats["workers_registered"] += 1
            self._cond.notify_all()
            fields = {"worker": worker_id}
            fields.update(self.limits.as_fields())
            return fields

    def heartbeat(self, worker_id: str) -> Dict[str, Any]:
        with self._cond:
            worker = self._live(worker_id)
            worker.last_seen = self._clock()
            if worker.state == "suspect":
                worker.state = "live"
                self.stats["workers_recovered"] += 1
                self._cond.notify_all()
            return {
                "state": "draining" if self.draining else "serving",
                "leases": len(worker.leases),
            }

    def deregister(self, worker_id: str,
                   stats: Optional[Dict[str, int]] = None) -> int:
        """Graceful detach: requeue the worker's open leases, drop it."""
        with self._cond:
            worker = self._workers.pop(worker_id, None)
            if worker is None:
                raise UnknownWorker(worker_id)
            released = 0
            for lease_id in list(worker.leases):
                lease = self._leases.pop(lease_id, None)
                if lease is not None:
                    self._requeue(lease, "deregister")
                    released += 1
            self.stats["workers_deregistered"] += 1
            if isinstance(stats, dict):
                for key, value in stats.items():
                    if isinstance(value, int) and not isinstance(value, bool):
                        self.stats["agent_" + str(key)] += value
            self._wake()
            return released

    def _live(self, worker_id: str) -> _Worker:
        worker = self._workers.get(worker_id)
        if worker is None or worker.state == "dead":
            raise UnknownWorker(worker_id)
        return worker

    # -- leases ---------------------------------------------------------------

    def lease(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Grant the next pending stage task, or ``None`` when idle.

        Round-robins across executing jobs so no campaign starves while
        another fans out.  A lease request also refreshes liveness.
        """
        with self._cond:
            worker = self._live(worker_id)
            now = self._clock()
            worker.last_seen = now
            if worker.state == "suspect":
                worker.state = "live"
                self.stats["workers_recovered"] += 1
            if self.draining:
                return None
            runs = [run for run in self._runs.values()
                    if run.pending and not run.cancelled]
            if not runs:
                return None
            run = runs[self._rr % len(runs)]
            self._rr += 1
            task = run.pending.popleft()
            epoch = run.epochs.get(task, 0) + 1
            run.epochs[task] = epoch
            lease_id = "ls%06d" % next(self._next_lease)
            lease = _Lease(lease_id, worker_id, run.job_id, task, epoch,
                           now, self.limits.lease_s)
            self._leases[lease_id] = lease
            worker.leases.add(lease_id)
            self.stats["leases_granted"] += 1
            run.stats["leases_granted"] += 1
            self._log("grant", lease)
            return {
                "lease": lease_id,
                "job": run.job_id,
                "task": task,
                "epoch": epoch,
                "deadline_s": self.limits.lease_s,
                "payload": run.tasks[task],
            }

    def complete(self, worker_id: str, lease_id: str, epoch: int,
                 value: Any) -> Dict[str, Any]:
        """Commit a completion; first one wins, the rest are deduped.

        A completion against a retired (expired / reassigned) lease is
        still *accepted* when the task is open -- the value is
        deterministic, so adopting the stalled worker's result is both
        correct and cheaper than waiting for the replacement.  Once a
        task is done every further completion is a duplicate: counted,
        WAL-logged, and dropped.
        """
        with self._cond:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
            lease = self._leases.pop(lease_id, None)
            retired = lease is None
            if retired:
                lease = self._retired.pop(lease_id, None)
            if lease is None:
                self.stats["unknown_lease_completions"] += 1
                raise UnknownLease(lease_id)
            if worker is not None:
                worker.leases.discard(lease_id)
            run = self._runs.get(lease.job_id)
            if run is None or run.cancelled:
                self.stats["late_completions"] += 1
                raise UnknownLease(lease_id)
            if lease.task in run.done:
                self.stats["duplicate_completions"] += 1
                run.stats["duplicate_completions"] += 1
                self._log("duplicate", lease, worker=worker_id)
                return {"accepted": False, "duplicate": True}
            stale = retired or epoch != run.epochs.get(lease.task)
            if stale:
                self.stats["stale_completions"] += 1
                run.stats["stale_completions"] += 1
            # The task may have been requeued (lease expiry) but not yet
            # re-leased: pull it back out of the pending queue.
            try:
                run.pending.remove(lease.task)
            except ValueError:
                pass
            run.done[lease.task] = value
            run.completions.append(lease.task)
            if worker is not None:
                worker.completed += 1
            self.stats["remote_completions"] += 1
            run.stats["remote_completions"] += 1
            self._log("done", lease, worker=worker_id, stale=stale)
            self._cond.notify_all()
            return {"accepted": True, "duplicate": False}

    def fail(self, worker_id: str, lease_id: str, epoch: int,
             detail: str) -> Dict[str, Any]:
        """A worker could not execute its lease: requeue (bounded)."""
        with self._cond:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
                worker.leases.discard(lease_id)
            lease = self._leases.pop(lease_id, None) \
                or self._retired.pop(lease_id, None)
            if lease is None:
                raise UnknownLease(lease_id)
            run = self._runs.get(lease.job_id)
            self.stats["task_failures"] += 1
            if run is None or run.cancelled or lease.task in run.done:
                return {"requeued": False}
            run.failures[lease.task] += 1
            run.stats["task_failures"] += 1
            if run.failures[lease.task] >= _MAX_TASK_FAILURES:
                run.error = "task %s failed %d times remotely: %s" % (
                    lease.task, run.failures[lease.task], detail
                )
                self._cond.notify_all()
                return {"requeued": False}
            self._requeue(lease, "fail")
            self._wake()
            return {"requeued": True}

    def _wake(self) -> None:
        """A task may have become leasable (or the pool drained).

        Lock held.  Wakes executor threads waiting on the condition and
        the ``on_wake`` listener (the server's held lease requests).
        """
        self._cond.notify_all()
        if self.on_wake is not None:
            self.on_wake()

    def _requeue(self, lease: _Lease, why: str) -> None:
        run = self._runs.get(lease.job_id)
        if run is None or run.cancelled or lease.task in run.done:
            return
        if lease.task not in run.pending:
            run.pending.append(lease.task)
        self.stats["tasks_requeued"] += 1
        run.stats["tasks_requeued"] += 1
        self._log("requeue", lease, why=why)

    # -- liveness / deadline scan ---------------------------------------------

    def scan(self, now: Optional[float] = None) -> None:
        """Advance liveness states and expire overdue leases.

        The server calls this on a timer; :meth:`run_tasks` also calls
        it while waiting, so deadlines hold even without the timer (the
        unit-test configuration).
        """
        with self._cond:
            if now is None:
                now = self._clock()
            changed = False
            heartbeat = self.limits.heartbeat_s
            for worker in list(self._workers.values()):
                if worker.state == "dead":
                    continue
                age = now - worker.last_seen
                if age > heartbeat * self.limits.miss_threshold:
                    worker.state = "dead"
                    self.stats["workers_lost"] += 1
                    changed = True
                    for lease_id in list(worker.leases):
                        lease = self._leases.pop(lease_id, None)
                        worker.leases.discard(lease_id)
                        if lease is not None:
                            self._retired[lease_id] = lease
                            self._requeue(lease, "worker_lost")
                elif age > heartbeat * 2:
                    if worker.state != "suspect":
                        worker.state = "suspect"
                        self.stats["workers_suspected"] += 1
                        changed = True
            for lease_id, lease in list(self._leases.items()):
                if now > lease.expires_at:
                    del self._leases[lease_id]
                    worker = self._workers.get(lease.worker_id)
                    if worker is not None:
                        worker.leases.discard(lease_id)
                    self._retired[lease_id] = lease
                    self.stats["leases_expired"] += 1
                    run = self._runs.get(lease.job_id)
                    if run is not None:
                        run.stats["leases_expired"] += 1
                    self._log("expire", lease)
                    self._requeue(lease, "deadline")
                    changed = True
            if changed:
                self._wake()

    def live_worker_count(self) -> int:
        """Workers currently able to take leases (live or suspect)."""
        with self._cond:
            return self._live_count_locked()

    def _live_count_locked(self) -> int:
        return sum(1 for worker in self._workers.values()
                   if worker.state in ("live", "suspect"))

    # -- the executor-side entry point -----------------------------------------

    def run_tasks(
        self,
        job_id: str,
        tasks: List[Tuple[str, Any]],
        run_local: Callable[[Any, str], Any],
        on_result: Optional[Callable[..., None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, int], bool]:
        """Park stage tasks for workers; fall back to local execution.

        Called on the job's executor thread and blocks until every task
        (including ones submitted by ``on_result(name, value, submit)``)
        has a committed value, the stop predicate trips, or a task
        exhausts its remote failure budget (:class:`RemoteTaskError`).
        Returns ``(values, stats, interrupted)``.
        """
        should_stop = should_stop or (lambda: False)
        run = _Run(job_id)
        values: Dict[str, Any] = {}
        processed: set = set()
        interrupted = False

        def submit(name: str, payload: Any) -> None:
            run.add(name, payload)
            self._wake()

        self._cond.acquire()
        try:
            self._runs[job_id] = run
            for name, payload in tasks:
                run.add(name, payload)
            self._wake()
            while True:
                if should_stop():
                    run.cancelled = True
                    interrupted = True
                    break
                if run.error is not None:
                    run.cancelled = True
                    raise RemoteTaskError(run.error)
                progressed = False
                while run.completions:
                    name = run.completions.popleft()
                    if name in processed:
                        continue
                    processed.add(name)
                    values[name] = run.done[name]
                    if on_result is not None:
                        on_result(name, run.done[name], submit)
                    progressed = True
                if run.finished():
                    break
                if progressed:
                    continue
                if run.pending and not self._live_count_locked():
                    self._run_one_locally(run, run_local)
                    continue
                self.scan()
                self._cond.wait(timeout=_WAIT_S)
        finally:
            self._drop_run(job_id)
            self._cond.release()
        return values, dict(run.stats), interrupted

    def _run_one_locally(self, run: _Run, run_local) -> None:
        """Execute one pending task on the calling thread (lock held).

        The lock is dropped around the stage body so workers can attach,
        heartbeat, and complete other tasks while local execution grinds;
        commitment afterwards goes through the same first-wins path as a
        remote completion.
        """
        task = run.pending.popleft()
        epoch = run.epochs.get(task, 0) + 1
        run.epochs[task] = epoch
        lease = _Lease("local", "local", run.job_id, task, epoch,
                       self._clock(), self.limits.lease_s)
        self._log("grant", lease)
        payload = run.tasks[task]
        self._cond.release()
        try:
            value = run_local(payload, task)
        finally:
            self._cond.acquire()
        if task in run.done:
            self.stats["duplicate_completions"] += 1
            run.stats["duplicate_completions"] += 1
            self._log("duplicate", lease)
            return
        run.done[task] = value
        run.completions.append(task)
        self.stats["local_completions"] += 1
        run.stats["local_completions"] += 1
        self._log("done", lease, stale=False)

    def _drop_run(self, job_id: str) -> None:
        self._runs.pop(job_id, None)
        for lease_id, lease in list(self._leases.items()):
            if lease.job_id == job_id:
                del self._leases[lease_id]
                worker = self._workers.get(lease.worker_id)
                if worker is not None:
                    worker.leases.discard(lease_id)
        for lease_id, lease in list(self._retired.items()):
            if lease.job_id == job_id:
                del self._retired[lease_id]

    # -- administrivia ---------------------------------------------------------

    def drain(self) -> None:
        """Stop granting leases (outstanding ones may still complete)."""
        with self._cond:
            self.draining = True
            self._wake()

    def note_idle(self) -> None:
        """Count one ``worker_lease`` reply that carried no grant."""
        with self._cond:
            self.stats["lease_idle"] += 1

    def health(self) -> Dict[str, Any]:
        """The worker-pool section of the server's ``health`` response."""
        with self._cond:
            counts = Counter(w.state for w in self._workers.values())
            live = self._live_count_locked()
            return {
                "mode": "distributed" if live else "local",
                "attached": len(self._workers),
                "live": counts.get("live", 0),
                "suspect": counts.get("suspect", 0),
                "dead": counts.get("dead", 0),
                "outstanding_leases": len(self._leases),
                "limits": self.limits.as_fields(),
                "stats": {key: int(value)
                          for key, value in sorted(self.stats.items())},
                "workers": [
                    {
                        "worker": w.worker_id,
                        "name": w.name,
                        "pid": w.pid,
                        "host": w.host,
                        "state": w.state,
                        "leases": len(w.leases),
                        "completed": w.completed,
                    }
                    for w in self._workers.values()
                ],
            }

    def _log(self, event: str, lease: _Lease, **extra: Any) -> None:
        if self._lease_log is None:
            return
        record = {
            "type": "lease",
            "event": event,
            "job": lease.job_id,
            "task": lease.task,
            "epoch": lease.epoch,
            "worker": lease.worker_id,
        }
        record.update(extra)
        try:
            self._lease_log(record)
        except Exception:  # pragma: no cover - WAL trouble must not wedge
            self.stats["lease_log_errors"] += 1
