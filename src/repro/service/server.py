"""The asyncio campaign server (race detection as a service).

One serving process, three moving parts:

* the **socket front end** -- a unix (or TCP) JSON-lines listener
  (:mod:`repro.service.protocol`) handling ``submit`` / ``status`` /
  ``result`` / ``cancel`` / ``health`` / ``drain``;
* the **admission layer** -- bounded active-job queue, per-tenant
  quotas, round-robin fair dispatch
  (:mod:`repro.service.admission`), rejecting with deterministic
  ``retry_after`` hints instead of queueing unboundedly;
* the **job engine** -- each accepted job gets one of ``concurrency``
  job threads running :func:`repro.service.executor.execute_job`,
  which shards the campaign into the run-level pipeline stages and
  records/analyzes against the shared content-addressed trace store,
  so identical recordings are made once globally and deduped across
  tenants.  The threads only coordinate: every local stage task is a
  blocking submit to the stage
  :class:`~repro.resilience.procpool.ProcessPool`, whose zygote and
  ``concurrency`` processes are forked when :meth:`CampaignServer.serve`
  starts, so concurrent jobs compute on separate cores; a stage process
  that dies or misses its deadline is replaced and its task retried.

Robustness contract (proven by the service chaos matrix):

* every transition of every job is appended to the job-state WAL
  (:class:`~repro.service.jobs.JobRegistry`) -- ``accepted`` durably
  *before* the submit reply, so an acknowledged job is never lost;
* a killed server restarts, replays the WAL, re-enqueues every
  non-terminal job, and completes it to a report byte-identical to the
  serial CLI path (the stores are the source of truth; re-execution
  skips all durable work);
* SIGTERM (or the ``drain`` op) stops admissions, interrupts running
  jobs at safe points, and exits with code 71 ("interrupted,
  resumable") plus a resume hint when any job remains in flight.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import os
import signal
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from threading import Lock
from typing import Dict, Optional, Set

from repro.common.errors import CordError
from repro.experiments import pipeline
from repro.resilience.checkpoint import INTERRUPTED_EXIT_CODE
from repro.resilience.procpool import ProcessPool
from repro.service import jobs as jobmod
from repro.service import protocol
from repro.service.admission import (
    AdmissionController,
    FairQueue,
    ServiceLimits,
)
from repro.service.executor import (
    JobInterrupted,
    execute_job,
    load_result,
    run_summary,
)
from repro.service.jobs import (
    ANALYZING,
    CampaignSpec,
    COMMITTED,
    Job,
    JobRegistry,
    RESUMABLE,
    job_from_replay,
)
from repro.service.workers import (
    PoolLimits,
    UnknownLease,
    UnknownWorker,
    WorkerPool,
    replicate,
)
from repro.trace.store import PackedTraceStore

logger = logging.getLogger("repro.service.server")


class CampaignServer:
    """One campaign-service instance bound to a state root directory.

    ``root`` holds everything durable: ``traces/`` (the shared
    content-addressed store) and ``service/jobs.wal`` (the job WAL).
    Two servers must not share a root concurrently; restarting one on
    the same root resumes it.
    """

    def __init__(
        self,
        root: os.PathLike,
        socket_path: Optional[os.PathLike] = None,
        host: Optional[str] = None,
        port: int = 0,
        limits: Optional[ServiceLimits] = None,
        concurrency: int = 2,
        default_deadline_s: Optional[float] = None,
    ):
        self.root = Path(root)
        self.socket_path = (
            Path(socket_path) if socket_path is not None
            else (None if host else self.root / "service.sock")
        )
        self.host = host
        self.port = port
        self.limits = limits or ServiceLimits()
        self.concurrency = concurrency
        self.default_deadline_s = default_deadline_s

        self.registry = JobRegistry(self.root)
        #: Remote ``cord-worker`` pool; lease events land in the job WAL
        #: so epochs and dedup decisions survive a restart.
        self.workers = WorkerPool(
            limits=PoolLimits.from_env(),
            lease_log=self.registry.log_lease,
        )
        #: Store handle for the replication ops (same ``traces/`` root
        #: the executors use; paths are content-addressed so sharing is
        #: safe) plus transfer accounting for ``health``.
        self._repl_store = PackedTraceStore(self.root / "traces")
        self.repl_stats: Counter = Counter()
        self.admission = AdmissionController(self.limits)
        self.jobs: Dict[str, Job] = {}
        self.queue = FairQueue()
        self.running: Set[str] = set()
        self.stats: Counter = Counter()
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        # Created inside serve(): on 3.9 asyncio primitives bind the
        # loop that is current at construction time.
        self._stopped: Optional[asyncio.Event] = None
        #: Set (from any thread, via the pool's wake listener) whenever
        #: a stage task may have become leasable; held ``worker_lease``
        #: requests wait on it.
        self._lease_wake: Optional[asyncio.Event] = None
        self._tasks: Set[asyncio.Task] = set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.concurrency,
            thread_name_prefix="svc-job",
        )
        #: One stage process per job thread, forked by serve().
        self.stage_pool = ProcessPool(
            pipeline.run_stage_task, self.concurrency
        )
        #: Cross-tenant dedup ledger: run key -> first-owner tenant,
        #: spec digest -> first-owner tenant.  Guarded (executor threads
        #: report shard plans concurrently).
        self._owner_lock = Lock()
        self._run_owner: Dict[tuple, str] = {}
        self._result_owner: Dict[str, str] = {}

    # -- lifecycle ------------------------------------------------------------

    async def serve(self) -> int:
        """Start, serve until drained/stopped, tear down; exit code."""
        # Fork the stage processes first: no client or listening socket,
        # WAL handle or job thread exists yet for them to inherit.
        self.stage_pool.start()
        try:
            return await self._serve()
        finally:
            self.stage_pool.shutdown()

    async def _serve(self) -> int:
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._lease_wake = asyncio.Event()
        self.workers.on_wake = functools.partial(
            loop.call_soon_threadsafe, self._lease_wake.set
        )
        self._resume_from_wal()
        self.registry.begin()
        await self._listen()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loops
        scan_task = asyncio.ensure_future(self._scan_workers())
        self._tasks.add(scan_task)
        scan_task.add_done_callback(self._tasks.discard)
        self._pump()
        await self._stopped.wait()
        return await self._shutdown()

    def _scan_interval(self) -> float:
        """Seconds between worker scans; also the longest lease hold."""
        return max(0.05, self.workers.limits.heartbeat_s / 2.0)

    async def _scan_workers(self) -> None:
        """Advance worker liveness / lease deadlines on a timer."""
        interval = self._scan_interval()
        while True:
            await asyncio.sleep(interval)
            self.workers.scan()

    async def _listen(self) -> None:
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(self.socket_path),
                limit=1 << 20,
            )
            where = str(self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port,
                limit=1 << 20,
            )
            bound = self._server.sockets[0].getsockname()
            self.port = bound[1]
            where = "%s:%d" % (bound[0], bound[1])
        print("cord-serve: listening on %s" % where, file=sys.stderr,
              flush=True)

    def _resume_from_wal(self) -> None:
        """Replay the job WAL and re-enqueue every non-terminal job."""
        store = PackedTraceStore(self.root / "traces")
        replayed = self.registry.replay()
        for job_id in sorted(replayed):
            entry = replayed[job_id]
            job = job_from_replay(entry)
            job.done_event = asyncio.Event()
            self.jobs[job_id] = job
            if job.state == COMMITTED:
                doc = load_result(store, job.spec)
                if doc is not None:
                    self._adopt_committed(job, doc)
                    continue
                # Committed per the WAL but the result document is
                # gone (damaged store): demote to resumable -- the
                # keyed artifacts rebuild it deterministically.
                job.state = ANALYZING
            if job.state in RESUMABLE:
                # Resume bypasses admission: these jobs were already
                # admitted (and acknowledged) by a previous life.
                self.stats["resumed"] += 1
                self.queue.push(job.tenant, job_id)
            else:
                job.done_event.set()
            logger.info(
                "resumed job %s (%s) in state %s",
                job_id, job.tenant, job.state,
            )

    def _adopt_committed(self, job: Job, doc: Dict) -> None:
        """Hydrate a committed job from its durable result document."""
        campaign = doc["campaign"]
        job.report = doc["report"]
        job.sync_instances = campaign.sync_instances
        job.runs_done = len(campaign.runs)
        job.run_events = [
            (run.run_index, run_summary(run)) for run in campaign.runs
        ]
        job.state = COMMITTED
        job.done_event.set()

    async def _shutdown(self) -> int:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._pool.shutdown(wait=True)
        self.registry.close()
        resumable = sorted(
            job_id for job_id, job in self.jobs.items() if not job.terminal
        )
        if resumable:
            print(
                "cord-serve: drained with %d job(s) in flight (%s); "
                "restart with the same --root to resume them"
                % (len(resumable), ", ".join(resumable)),
                file=sys.stderr, flush=True,
            )
            return INTERRUPTED_EXIT_CODE
        return 0

    def begin_drain(self) -> None:
        """Stop admitting, interrupt running jobs, exit when quiesced."""
        if self.draining:
            return
        self.draining = True
        print("cord-serve: draining (no new submissions accepted)",
              file=sys.stderr, flush=True)
        self.workers.drain()
        for job_id in list(self.running):
            self.jobs[job_id].interrupt("drain")
        self._maybe_stop()

    def _maybe_stop(self) -> None:
        if self.draining and not self.running and self._stopped is not None:
            self._stopped.set()

    # -- scheduling -----------------------------------------------------------

    def _active_counts(self):
        total = 0
        by_tenant: Counter = Counter()
        for job in self.jobs.values():
            if not job.terminal:
                total += 1
                by_tenant[job.tenant] += 1
        return total, by_tenant

    def _pump(self) -> None:
        """Dispatch queued jobs while concurrency slots are free."""
        while (
            not self.draining
            and len(self.running) < self.concurrency
            and len(self.queue)
        ):
            job_id = self.queue.pop()
            job = self.jobs[job_id]
            self.running.add(job_id)
            task = asyncio.ensure_future(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        deadline_handle = None
        if job.deadline_s:
            deadline_handle = loop.call_later(
                job.deadline_s, job.interrupt, "deadline"
            )

        def on_phase(name: str, **info) -> None:
            # Executor-thread callback: journal the transition and keep
            # the in-memory view current.  The registry append is the
            # chaos matrix's svc_kill tick point.
            if name == "sharded":
                job.sync_instances = info["instances"]
                self._note_dedup(
                    job, info["keys"], info["durable"],
                    info["switch_probability"],
                )
                job.state = jobmod.SHARDED
                self.registry.log_state(
                    job.job_id, jobmod.SHARDED,
                    instances=info["instances"],
                )
                return
            state = (
                jobmod.RECORDING if name == "recording"
                else jobmod.ANALYZING
            )
            job.state = state
            self.registry.log_state(job.job_id, state)

        def on_run(run) -> None:
            job.run_events.append((run.run_index, run_summary(run)))
            job.runs_done = len(job.run_events)

        try:
            outcome = await loop.run_in_executor(
                self._pool,
                lambda: execute_job(
                    job.spec, self.root,
                    stop=job.should_stop,
                    run_stage=self.stage_pool.run,
                    on_phase=on_phase,
                    on_run=on_run,
                    pool=self.workers,
                    job_id=job.job_id,
                ),
            )
        except JobInterrupted:
            self._finish_interrupted(job)
        except CordError as exc:
            self._finish_failed(job, exc)
        except Exception as exc:  # noqa: BLE001 -- a job bug must not
            # take the server down with it; it fails that job only.
            logger.exception("job %s crashed", job.job_id)
            self._finish_failed(job, exc)
        else:
            self._note_result_dedup(job, outcome["stats"])
            job.report = outcome["report"]
            for key, value in outcome["stats"].items():
                if isinstance(value, int):
                    job.stats[key] = job.stats.get(key, 0) + value
            job.stats["store"] = outcome["stats"].get("store", {})
            remote = outcome["stats"].get("remote")
            if remote:
                job.stats["remote"] = {
                    key: int(value) for key, value in sorted(remote.items())
                }
            job.state = COMMITTED
            # Result document first (store = source of truth), then the
            # WAL commit -- a kill between the two replays as
            # "analyzing" and re-commits from the durable document.
            self.registry.log_state(job.job_id, COMMITTED)
        finally:
            if deadline_handle is not None:
                deadline_handle.cancel()
            self.running.discard(job.job_id)
            if job.terminal:
                job.done_event.set()
            self._pump()
            self._maybe_stop()

    def _finish_interrupted(self, job: Job) -> None:
        reason = job.stop_reason or "drain"
        if reason == "cancel":
            job.state = jobmod.CANCELLED
            job.error = protocol.ERR_CANCELLED
            self.registry.log_state(job.job_id, jobmod.CANCELLED)
        elif reason == "deadline":
            job.state = jobmod.FAILED
            job.error = protocol.ERR_DEADLINE
            job.detail = (
                "job exceeded its %.3fs deadline" % (job.deadline_s or 0.0)
            )
            self.registry.log_state(
                job.job_id, jobmod.FAILED,
                error=job.error, detail=job.detail,
            )
        else:
            # Drain: deliberately *no* WAL write -- the job keeps its
            # last journaled state and the next server resumes it.
            logger.info("job %s checkpointed for drain", job.job_id)

    def _finish_failed(self, job: Job, exc: BaseException) -> None:
        job.state = jobmod.FAILED
        job.error = protocol.ERR_JOB_FAILED
        job.detail = "%s: %s" % (type(exc).__name__, exc)
        self.registry.log_state(
            job.job_id, jobmod.FAILED, error=job.error, detail=job.detail,
        )

    # -- cross-tenant dedup accounting ---------------------------------------

    def _note_dedup(self, job, keys, durable, switch_probability) -> None:
        namespace = job.spec.trace_namespace()
        hits = 0
        with self._owner_lock:
            for run_index, seed, target in keys:
                run_key = (namespace, seed, target, switch_probability)
                owner = self._run_owner.setdefault(run_key, job.tenant)
                if durable.get(run_index) and owner != job.tenant:
                    hits += 1
        if hits:
            job.stats["dedup_run_hits"] = (
                job.stats.get("dedup_run_hits", 0) + hits
            )
            self.stats["dedup_run_hits"] += hits

    def _note_result_dedup(self, job, stats: Dict) -> None:
        if not stats.get("result_hit"):
            with self._owner_lock:
                self._result_owner.setdefault(job.spec.digest(),
                                              job.tenant)
            return
        with self._owner_lock:
            owner = self._result_owner.setdefault(
                job.spec.digest(), job.tenant
            )
        if owner != job.tenant:
            job.stats["dedup_result_hits"] = (
                job.stats.get("dedup_result_hits", 0) + 1
            )
            self.stats["dedup_result_hits"] += 1

    # -- protocol front end ---------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode_message(line)
                except protocol.ProtocolError as exc:
                    self._send(writer, protocol.error_response(
                        protocol.ERR_BAD_REQUEST, str(exc),
                    ))
                    await writer.drain()
                    continue
                await self._dispatch(message, reader, writer)
                await writer.drain()
        except (ConnectionError, asyncio.LimitOverrunError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except OSError:
                pass

    @staticmethod
    def _send(writer, message: Dict) -> None:
        writer.write(protocol.encode_message(message))

    async def _dispatch(self, message: Dict, reader, writer) -> None:
        op = message.get("op")
        request_id = message.get("id")
        if op == "submit":
            self._send(writer, self._op_submit(message, request_id))
        elif op == "status":
            self._send(writer, self._op_status(message, request_id))
        elif op == "cancel":
            self._send(writer, self._op_cancel(message, request_id))
        elif op == "health":
            self._send(writer, self._op_health(request_id))
        elif op == "drain":
            self._send(writer, self._op_drain(request_id))
            await writer.drain()
            asyncio.get_running_loop().call_soon(self.begin_drain)
        elif op == "result":
            await self._op_result(message, request_id, writer)
        elif op == "worker_register":
            self._send(writer, self._op_worker_register(message, request_id))
        elif op == "worker_heartbeat":
            self._send(writer, self._op_worker_heartbeat(message, request_id))
        elif op == "worker_lease":
            self._send(
                writer,
                await self._op_worker_lease(message, request_id, reader),
            )
        elif op == "worker_complete":
            self._send(writer, self._op_worker_complete(message, request_id))
        elif op == "worker_fail":
            self._send(writer, self._op_worker_fail(message, request_id))
        elif op == "worker_deregister":
            self._send(
                writer, self._op_worker_deregister(message, request_id)
            )
        elif op == "repl_pull":
            self._send(writer, self._op_repl_pull(message, request_id))
        elif op == "repl_push":
            self._send(writer, self._op_repl_push(message, request_id))
        else:
            self._send(writer, protocol.error_response(
                protocol.ERR_UNKNOWN_OP,
                "unknown op %r (choices: %s)"
                % (op, ", ".join(protocol.OPS)),
                request_id,
            ))

    def _op_submit(self, message: Dict, request_id) -> Dict:
        try:
            fields = protocol.validate_submit(message)
        except protocol.ProtocolError as exc:
            return protocol.error_response(
                protocol.ERR_BAD_REQUEST, str(exc), request_id,
            )
        tenant = fields["tenant"]
        total, by_tenant = self._active_counts()
        verdict = self.admission.admit(
            tenant, total, by_tenant.get(tenant, 0), self.draining,
        )
        if verdict is not None:
            code, retry_after = verdict
            self.stats["rejected_%s" % code] += 1
            return protocol.error_response(
                code,
                "submission rejected (%s); retry after %.1fs"
                % (code, retry_after),
                request_id,
                retry_after=retry_after,
            )
        spec = CampaignSpec(
            workload=fields["workload"],
            runs=fields["runs"],
            seed=fields["seed"],
            scale=fields["scale"],
            switch_probability=fields["switch_probability"],
        )
        job_id = self.registry.allocate_job_id(spec)
        job = Job(
            job_id=job_id,
            tenant=tenant,
            spec=spec,
            deadline_s=fields["deadline_s"] or self.default_deadline_s,
        )
        job.done_event = asyncio.Event()
        self.jobs[job_id] = job
        # The accepted record is durable BEFORE the reply goes out:
        # once a client holds a job id, no crash may forget the job.
        self.registry.log_accepted(job)
        self.stats["accepted"] += 1
        self.queue.push(tenant, job_id)
        self._pump()
        return protocol.ok_response(
            "submit", request_id,
            job=job_id, state=job.state, spec=spec.to_wire(),
            tenant=tenant,
        )

    def _lookup(self, message: Dict, request_id):
        job_id = message.get("job")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            return None, protocol.error_response(
                protocol.ERR_UNKNOWN_JOB,
                "no job %r on this server" % (job_id,), request_id,
            )
        return job, None

    def _op_status(self, message: Dict, request_id) -> Dict:
        job, error = self._lookup(message, request_id)
        if error is not None:
            return error
        return protocol.ok_response(
            "status", request_id, **job.status_fields()
        )

    def _op_cancel(self, message: Dict, request_id) -> Dict:
        job, error = self._lookup(message, request_id)
        if error is not None:
            return error
        if job.terminal:
            return protocol.ok_response(
                "cancel", request_id, job=job.job_id, state=job.state,
            )
        if self.queue.remove(job.job_id):
            job.state = jobmod.CANCELLED
            job.error = protocol.ERR_CANCELLED
            self.registry.log_state(job.job_id, jobmod.CANCELLED)
            job.done_event.set()
            return protocol.ok_response(
                "cancel", request_id, job=job.job_id, state=job.state,
            )
        job.interrupt("cancel")
        return protocol.ok_response(
            "cancel", request_id, job=job.job_id, state="cancelling",
        )

    def _op_health(self, request_id) -> Dict:
        total, by_tenant = self._active_counts()
        by_state: Counter = Counter()
        for job in self.jobs.values():
            by_state[job.state] += 1
        return protocol.ok_response(
            "health", request_id,
            state="draining" if self.draining else "serving",
            version=protocol.PROTOCOL_VERSION,
            queue={
                "depth": len(self.queue),
                "running": len(self.running),
                "active": total,
                "max": self.limits.queue_max,
                "by_tenant": self.queue.depths(),
            },
            tenants={
                tenant: {
                    "active": count,
                    "max": self.limits.tenant_max,
                }
                for tenant, count in sorted(by_tenant.items())
            },
            jobs={
                "total": len(self.jobs),
                "by_state": dict(sorted(by_state.items())),
            },
            jobs_list=[
                {
                    "job": job_id,
                    "tenant": self.jobs[job_id].tenant,
                    "state": self.jobs[job_id].state,
                }
                for job_id in sorted(self.jobs)
            ],
            stats={
                key: int(value) for key, value in sorted(self.stats.items())
            },
            workers=dict(
                self.workers.health(),
                replication={
                    key: int(value)
                    for key, value in sorted(self.repl_stats.items())
                },
            ),
            stage_pool=self.stage_pool.health(),
            limits={
                "queue_max": self.limits.queue_max,
                "tenant_max": self.limits.tenant_max,
                "retry_after_s": self.limits.retry_after_s,
                "concurrency": self.concurrency,
            },
        )

    def _op_drain(self, request_id) -> Dict:
        pending = sorted(
            job_id for job_id, job in self.jobs.items() if not job.terminal
        )
        return protocol.ok_response("drain", request_id, pending=pending)

    # -- worker-pool ops -------------------------------------------------------

    def _unknown_worker(self, exc: UnknownWorker, request_id) -> Dict:
        self.stats["unknown_worker_requests"] += 1
        return protocol.error_response(
            protocol.ERR_UNKNOWN_WORKER,
            "no live worker %s on this server (re-register)" % exc,
            request_id,
        )

    def _op_worker_register(self, message: Dict, request_id) -> Dict:
        if self.draining:
            return protocol.error_response(
                protocol.ERR_DRAINING,
                "server is draining; not attaching workers",
                request_id, retry_after=self.limits.retry_after_s,
            )
        fields = self.workers.register(
            name=str(message.get("name", ""))[:64],
            pid=int(message.get("pid") or 0),
            host=str(message.get("host", ""))[:128],
        )
        # A worker forks one stage process per job slot: with every
        # slot's job leasing out, that is enough to keep them all busy.
        fields["concurrency"] = self.concurrency
        self.stats["workers_attached"] += 1
        return protocol.ok_response("worker_register", request_id, **fields)

    def _op_worker_heartbeat(self, message: Dict, request_id) -> Dict:
        try:
            fields = self.workers.heartbeat(str(message.get("worker", "")))
        except UnknownWorker as exc:
            return self._unknown_worker(exc, request_id)
        return protocol.ok_response("worker_heartbeat", request_id, **fields)

    def _lease_hold_s(self, message: Dict) -> float:
        """How long an idle ``worker_lease`` may be held open.

        The request's ``timeout_s`` (the worker's bound, kept below its
        socket timeout) clamped to the scan interval, so a held request
        never outlives a liveness scan; no bound means no hold.
        """
        bound = message.get("timeout_s")
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            return 0.0
        return max(0.0, min(self._scan_interval(), float(bound)))

    async def _op_worker_lease(self, message: Dict, request_id,
                               reader) -> Dict:
        """Grant a lease, holding the request while nothing is pending.

        The held request answers as soon as the pool's wake listener
        fires and a task is leasable, with ``idle`` when the hold runs
        out or the worker hung up, and with ``idle`` plus ``draining``
        once the pool drains.
        """
        worker = str(message.get("worker", ""))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._lease_hold_s(message)
        while True:
            # Clear, then try, with no await between: a task parked
            # after the clear sets the event again, so none is missed.
            self._lease_wake.clear()
            try:
                grant = self.workers.lease(worker)
            except UnknownWorker as exc:
                return self._unknown_worker(exc, request_id)
            if grant is not None:
                break
            draining = self.draining or self.workers.draining
            remaining = deadline - loop.time()
            if draining or remaining <= 0 or reader.at_eof():
                self.workers.note_idle()
                return protocol.ok_response(
                    "worker_lease", request_id, idle=True,
                    draining=draining,
                )
            try:
                await asyncio.wait_for(self._lease_wake.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        payload = grant.pop("payload")
        return protocol.ok_response(
            "worker_lease", request_id,
            payload=replicate.pickle_blob(payload), **grant,
        )

    def _op_worker_complete(self, message: Dict, request_id) -> Dict:
        worker = str(message.get("worker", ""))
        lease = str(message.get("lease", ""))
        epoch = int(message.get("epoch") or 0)
        blob = message.get("value")
        try:
            value = replicate.unpickle_blob(
                blob if isinstance(blob, dict) else {}, "completion value"
            )
        except replicate.ReplicaIntegrityError as exc:
            # Keep the evidence, reject, let the worker re-encode.
            self.repl_stats["corrupt_rejected"] += 1
            self._repl_store.quarantine_bytes(
                "complete-%s.bin" % (lease or "unknown"),
                replicate.raw_bytes(blob if isinstance(blob, dict) else {}),
                exc,
            )
            return protocol.error_response(
                protocol.ERR_REPLICA_CORRUPT, str(exc), request_id,
            )
        try:
            fields = self.workers.complete(worker, lease, epoch, value)
        except UnknownWorker as exc:
            return self._unknown_worker(exc, request_id)
        except UnknownLease as exc:
            return protocol.error_response(
                protocol.ERR_UNKNOWN_LEASE,
                "lease %s is not open or retired here" % exc, request_id,
            )
        return protocol.ok_response("worker_complete", request_id, **fields)

    def _op_worker_fail(self, message: Dict, request_id) -> Dict:
        try:
            fields = self.workers.fail(
                str(message.get("worker", "")),
                str(message.get("lease", "")),
                int(message.get("epoch") or 0),
                str(message.get("detail", ""))[:500],
            )
        except UnknownWorker as exc:
            return self._unknown_worker(exc, request_id)
        except UnknownLease as exc:
            return protocol.error_response(
                protocol.ERR_UNKNOWN_LEASE,
                "lease %s is not open or retired here" % exc, request_id,
            )
        return protocol.ok_response("worker_fail", request_id, **fields)

    def _op_worker_deregister(self, message: Dict, request_id) -> Dict:
        stats = message.get("stats")
        try:
            released = self.workers.deregister(
                str(message.get("worker", "")),
                stats=stats if isinstance(stats, dict) else None,
            )
        except UnknownWorker as exc:
            return self._unknown_worker(exc, request_id)
        return protocol.ok_response(
            "worker_deregister", request_id, released=released,
        )

    # -- store replication ops -------------------------------------------------

    def _repl_key(self, message: Dict, request_id):
        """Parse (kind, namespace, components) or an error response."""
        wire_kind = message.get("kind")
        disk_kind = replicate.ENTRY_KINDS.get(wire_kind)
        namespace = message.get("namespace")
        if disk_kind is None or not isinstance(namespace, str) \
                or not namespace:
            return protocol.error_response(
                protocol.ERR_BAD_REQUEST,
                "replication needs kind in %s and a namespace"
                % sorted(replicate.ENTRY_KINDS),
                request_id,
            )
        try:
            components = replicate.components_from_wire(
                message.get("components")
            )
        except ValueError as exc:
            return protocol.error_response(
                protocol.ERR_BAD_REQUEST, str(exc), request_id,
            )
        return disk_kind, namespace, components

    def _op_repl_pull(self, message: Dict, request_id) -> Dict:
        parsed = self._repl_key(message, request_id)
        if isinstance(parsed, dict):
            return parsed
        kind, namespace, components = parsed
        raw = replicate.read_entry(
            self._repl_store, kind, namespace, components
        )
        if raw is None:
            return protocol.error_response(
                protocol.ERR_NOT_FOUND,
                "no such %s entry on this server"
                % message.get("kind"), request_id,
            )
        self.repl_stats["pulls"] += 1
        self.repl_stats["bytes_out"] += len(raw)
        return protocol.ok_response(
            "repl_pull", request_id, **replicate.encode_blob(raw)
        )

    def _op_repl_push(self, message: Dict, request_id) -> Dict:
        parsed = self._repl_key(message, request_id)
        if isinstance(parsed, dict):
            return parsed
        kind, namespace, components = parsed
        try:
            raw = replicate.decode_blob(message, "pushed entry")
        except replicate.ReplicaIntegrityError as exc:
            self.repl_stats["corrupt_rejected"] += 1
            self._repl_store.quarantine_bytes(
                "push-%s.bin" % namespace,
                replicate.raw_bytes(message), exc,
            )
            return protocol.error_response(
                protocol.ERR_REPLICA_CORRUPT, str(exc), request_id,
            )
        try:
            stored = replicate.install_entry(
                self._repl_store, kind, namespace, components, raw
            )
        except replicate.ReplicaIntegrityError as exc:
            # install_entry already quarantined the bytes.
            self.repl_stats["corrupt_rejected"] += 1
            return protocol.error_response(
                protocol.ERR_REPLICA_CORRUPT, str(exc), request_id,
            )
        self.repl_stats["pushes"] += 1
        self.repl_stats["bytes_in"] += len(raw)
        if not stored:
            self.repl_stats["push_duplicates"] += 1
        return protocol.ok_response(
            "repl_push", request_id, stored=stored, duplicate=not stored,
        )

    async def _op_result(self, message: Dict, request_id, writer) -> None:
        job, error = self._lookup(message, request_id)
        if error is not None:
            self._send(writer, error)
            return
        stream = bool(message.get("stream"))
        timeout_s = message.get("timeout_s")
        deadline = (
            asyncio.get_running_loop().time() + float(timeout_s)
            if timeout_s is not None else None
        )
        emitted = 0
        while True:
            if stream:
                while emitted < len(job.run_events):
                    run_index, summary = job.run_events[emitted]
                    self._send(writer, {
                        "event": "run", "job": job.job_id,
                        "run_index": run_index, **summary,
                    })
                    emitted += 1
                await writer.drain()
            if job.done_event.is_set():
                break
            if deadline is not None and (
                asyncio.get_running_loop().time() >= deadline
            ):
                self._send(writer, protocol.error_response(
                    protocol.ERR_PENDING,
                    "job %s still %s" % (job.job_id, job.state),
                    request_id,
                    retry_after=self.limits.retry_after_s,
                    final=True, job=job.job_id, state=job.state,
                ))
                return
            try:
                await asyncio.wait_for(
                    job.done_event.wait(),
                    timeout=0.05 if stream else 0.25,
                )
            except asyncio.TimeoutError:
                continue
        if stream:
            # Flush runs that landed with the terminal transition.
            while emitted < len(job.run_events):
                run_index, summary = job.run_events[emitted]
                self._send(writer, {
                    "event": "run", "job": job.job_id,
                    "run_index": run_index, **summary,
                })
                emitted += 1
        if job.state == COMMITTED:
            self._send(writer, protocol.ok_response(
                "result", request_id,
                event="result", final=True,
                job=job.job_id, state=job.state,
                report=job.report,
                stats=_json_stats(job.stats),
                sync_instances=job.sync_instances,
                runs_done=job.runs_done,
            ))
        else:
            self._send(writer, protocol.error_response(
                job.error or protocol.ERR_JOB_FAILED,
                job.detail, request_id,
                event="result", final=True,
                job=job.job_id, state=job.state,
            ))


def _json_stats(stats: Dict) -> Dict:
    """Job stats as a JSON-safe dict (nested store snapshot included)."""
    out = {}
    for key, value in sorted(stats.items()):
        if isinstance(value, dict):
            out[key] = {k: int(v) for k, v in sorted(value.items())}
        elif isinstance(value, int):
            out[key] = value
    return out


async def serve(**kwargs) -> int:
    """Construct a :class:`CampaignServer` and run it to completion."""
    server = CampaignServer(**kwargs)
    return await server.serve()
