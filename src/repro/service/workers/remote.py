"""``cord-worker``: a remote execution agent for the campaign service.

One agent process attaches to a ``cord-serve`` instance, leases stage
tasks (sizing / record / analyze -- the same
:func:`~repro.experiments.pipeline.run_stage_task` payloads the
in-process scheduler uses), executes them against its *own* local trace
store, replicates the artifacts it produced (and fetches the ones it
needs) through the store-replication ops, and streams completions back.

Right after its first registration the agent starts a pre-forked
:class:`~repro.resilience.procpool.ProcessPool` of one stage process
per server job slot (the reply's ``concurrency``; 1 when absent) and
runs one lease loop per stage process, so one worker computes as many
leases at once as the server runs jobs.  A stage process that dies or
misses its deadline is replaced and its lease's task retried.

The transport is connection-per-request, so the agent's identity is its
``worker`` id, not a socket: a flapped link or a restarted server costs
a few retries, never a lost worker.  Liveness is maintained by a
background heartbeat thread; when the server declares the worker dead
(``unknown_worker``), it simply re-registers, once however many threads
saw the reply.  All retry paths use capped exponential backoff with
deterministic jitter (:func:`~repro.common.backoff.backoff_delay`),
keyed per lease loop.

Shutdown semantics: SIGTERM requests a drain -- the agent finishes
every lease it holds, pushes their artifacts, completes them,
deregisters, and exits 0.  A server-initiated drain observed via
heartbeat or lease responses does the same, and so does one lease loop
concluding the server is lost.  The chaos faults ``worker_vanish``
(hard exit, code 90), ``lease_stall`` (sleep past the lease deadline),
and ``net_partition`` (a window of failed requests) are tick-gated at
the lease-lifecycle transitions ``granted`` -> ``executed`` ->
``pushed`` -> ``completed``, which is what lets the multi-host fault
matrix kill or freeze a worker at every stage of a lease in turn.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket as socketlib
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.backoff import backoff_delay
from repro.experiments import pipeline
from repro.injection.campaign import (
    bundle_key,
    detectors_digest,
    sizing_key,
)
from repro.resilience import faults
from repro.resilience.procpool import ProcessPool
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.workers import replicate
from repro.trace.store import PackedTraceStore

#: How long a completion keeps retrying through a partition before the
#: lease is abandoned (the server will have reassigned it anyway).
_COMPLETE_GIVE_UP_S = 30.0


class WorkerAgent:
    """The lease/execute/replicate/complete loops of one worker process.

    Every lease loop and the heartbeat thread share ``stats``,
    ``worker_id`` and the partition window under one lock;
    registrations are serialized behind a second one.
    """

    def __init__(
        self,
        root,
        socket_path=None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        name: str = "",
        connect_timeout: float = 10.0,
        timeout: float = 120.0,
    ):
        self.client = ServiceClient(
            socket_path=socket_path, host=host, port=port,
            timeout=timeout, connect_timeout=connect_timeout,
        )
        self.root = Path(root)
        self.store = PackedTraceStore(self.root / "traces")
        self.name = name or "worker-%d" % os.getpid()
        self.connect_timeout = max(0.0, connect_timeout)
        #: Agent counters; ``store_*`` sums the counters of the stores
        #: the stage tasks opened.
        self.stats: Counter = Counter()
        self.worker_id: Optional[str] = None
        self.heartbeat_s = 2.0
        #: Stage processes (and lease loops): the server's job slots.
        self.processes = 1
        self.stage_pool: Optional[ProcessPool] = None
        #: Set once every lease loop should stop after its lease: a
        #: local drain, a server drain, or a server found lost.
        self._stop = threading.Event()
        #: The server announced a drain or was found lost.
        self._server_draining = threading.Event()
        #: A request failed after that: the server has exited.
        self._server_gone = threading.Event()
        self._hb_stop = threading.Event()
        self._lock = threading.Lock()
        self._register_lock = threading.Lock()
        #: The server answered ``unknown_worker`` to ``worker_id``.
        self._stale = False
        self._partition_left = 0

    def _count(self, key: str) -> None:
        with self._lock:
            self.stats[key] += 1

    # -- transport -------------------------------------------------------------

    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response, subject to the ``net_partition`` window.

        Once the server has announced a drain, the first unreachable
        request means it has exited: later requests fail at once, so a
        lease loop finishing a late lease does not spend a connect
        budget per request on a server that will not come back.
        """
        if self._server_gone.is_set():
            raise ServiceUnavailable("server exited after its drain")
        with self._lock:
            if self._partition_left > 0:
                self._partition_left -= 1
                self.stats["partition_drops"] += 1
                raise ServiceUnavailable("injected net_partition")
        try:
            return self.client.call(message)
        except ServiceUnavailable:
            if self._server_draining.is_set():
                self._server_gone.set()
            raise

    def _server_drains(self) -> None:
        """The server drains (or is lost): every lease loop stops too."""
        self._server_draining.set()
        self._stop.set()

    def _backoff_sleep(self, key: str, attempt: int) -> None:
        time.sleep(backoff_delay(key, attempt))

    # -- chaos -----------------------------------------------------------------

    def _chaos(self, transition: str) -> None:
        """The worker-side fault hook, one tick per lease transition."""
        if not faults.active():
            return
        # The lease loops share the tick counters: advance them under
        # the lock, then act outside it, so a stall holds no lock.
        with self._lock:
            vanish, stall, partition = (
                faults.tick(fault)
                for fault in ("worker_vanish", "lease_stall",
                              "net_partition")
            )
        if vanish:
            sys.stderr.write(
                "cord-worker %s: worker_vanish at %s\n"
                % (self.name, transition)
            )
            sys.stderr.flush()
            os._exit(faults.WORKER_VANISH_EXIT_CODE)
        if stall:
            self._count("stalls")
            time.sleep(faults.stall_seconds("lease_stall"))
        if partition:
            with self._lock:
                self._partition_left = faults.partition_requests()
                self.stats["partitions"] += 1

    # -- registration / heartbeats ---------------------------------------------

    def _register(self) -> bool:
        attempt = 0
        while not self._stop.is_set():
            try:
                reply = self._call({
                    "op": "worker_register",
                    "name": self.name,
                    "pid": os.getpid(),
                    "host": socketlib.gethostname(),
                })
            except ServiceUnavailable:
                self._backoff_sleep(self.name, attempt)
                attempt += 1
                continue
            if reply.get("ok"):
                with self._lock:
                    self.worker_id = reply["worker"]
                    self.heartbeat_s = float(
                        reply.get("heartbeat_s", self.heartbeat_s)
                    )
                    if self.stage_pool is None:
                        self.processes = max(
                            1, int(reply.get("concurrency", 1))
                        )
                    self._stale = False
                    self.stats["registrations"] += 1
                return True
            if reply.get("error") == protocol.ERR_DRAINING:
                self._server_drains()
                return False
            time.sleep(float(reply.get("retry_after", 0.2)))
        return False

    def _forget(self, worker_id: Optional[str]) -> None:
        """The server answered ``unknown_worker`` to ``worker_id``."""
        with self._lock:
            if worker_id == self.worker_id:
                self._stale = True

    def _reregister(self) -> bool:
        """Register again if the server forgot this worker.

        However many threads saw ``unknown_worker`` for the current id,
        the first one here registers and the rest find a fresh id.
        Returns False when the agent should stop.
        """
        with self._register_lock:
            with self._lock:
                if not self._stale:
                    return True
                self.stats["reregistrations"] += 1
            return self._register()

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_s):
            worker_id = self.worker_id
            try:
                reply = self._call({
                    "op": "worker_heartbeat", "worker": worker_id,
                })
            except ServiceUnavailable:
                self._count("heartbeat_misses")
                continue
            if reply.get("ok"):
                if reply.get("state") == "draining":
                    self._server_drains()
            elif reply.get("error") == protocol.ERR_UNKNOWN_WORKER:
                self._forget(worker_id)

    # -- the lease loops -------------------------------------------------------

    def run(self) -> int:
        """Serve until drained; returns the process exit code (0)."""
        self._install_signal_handlers()
        if not self._register():
            self._summary("never registered")
            return 0
        # Fork before any other thread starts; requests are one
        # connection each, so no socket is open either.
        self.stage_pool = ProcessPool(
            pipeline.run_stage_task, self.processes
        )
        self.stage_pool.start()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="heartbeat", daemon=True
        )
        heartbeat.start()
        loops = [
            threading.Thread(
                target=self._lease_loop, args=(index,),
                name="lease-%d" % index, daemon=True,
            )
            for index in range(1, self.processes)
        ]
        for loop in loops:
            loop.start()
        try:
            self._lease_loop(0)
        finally:
            self._stop.set()
            for loop in loops:
                loop.join()
            self._hb_stop.set()
            self._deregister()
            self.stage_pool.shutdown()
            self._summary("drained")
        return 0

    def _lease_loop(self, index: int) -> None:
        """Lease, execute and complete tasks until the agent stops."""
        key = "%s/%d" % (self.name, index)
        attempt = 0
        lost_since: Optional[float] = None
        # A registered worker that cannot reach the server for a full
        # connect budget concludes the server is gone and drains out
        # (exit 0) instead of retrying forever.  Each failed call has
        # already burned ``connect_timeout`` inside the client's own
        # connect-retry loop, so one grace window past the first
        # failure is a conservative "it is really dead" signal.
        lost_grace = max(self.connect_timeout, 4 * self.heartbeat_s, 2.0)
        while not self._stop.is_set():
            if not self._reregister():
                break
            worker_id = self.worker_id
            try:
                # An idle request is held server-side until a task is
                # leasable; half the socket timeout bounds the hold.
                reply = self._call({
                    "op": "worker_lease", "worker": worker_id,
                    "timeout_s": self.client.timeout / 2.0,
                })
            except ServiceUnavailable:
                now = time.monotonic()
                if lost_since is None:
                    lost_since = now
                elif now - lost_since >= lost_grace:
                    self._count("server_lost")
                    self._server_drains()
                    break
                self._backoff_sleep(key, attempt)
                attempt += 1
                continue
            lost_since = None
            if not reply.get("ok"):
                if reply.get("error") == protocol.ERR_UNKNOWN_WORKER:
                    self._forget(worker_id)
                else:
                    self._backoff_sleep(key, attempt)
                    attempt += 1
                continue
            attempt = 0
            if reply.get("draining"):
                self._server_drains()
            # An idle reply was already held by the server: ask again at
            # once (the loop condition catches a drain).
            if not reply.get("idle", False) and "lease" in reply:
                self._handle_lease(reply, key)

    def _handle_lease(self, grant: Dict[str, Any], key: str) -> None:
        """Execute one granted lease end to end (never raises)."""
        lease_id = grant["lease"]
        epoch = int(grant.get("epoch", 0))
        self._count("leases")
        self._chaos("granted")
        try:
            payload = replicate.unpickle_blob(
                grant["payload"], "lease payload"
            )
        except replicate.ReplicaIntegrityError as exc:
            self._count("payload_corrupt")
            self._send_fail(lease_id, epoch, "corrupt payload: %s" % exc)
            return
        try:
            value, re_recorded = self._execute(payload, grant["task"])
        except ServiceUnavailable as exc:
            self._send_fail(lease_id, epoch, "replication lost: %s" % exc)
            return
        except Exception as exc:  # noqa: BLE001 - reported to the server
            self._count("task_errors")
            self._send_fail(
                lease_id, epoch, "%s: %s" % (type(exc).__name__, exc)
            )
            return
        self._chaos("executed")
        self._push_artifacts(payload, re_recorded)
        self._chaos("pushed")
        self._send_complete(lease_id, epoch, value, key)
        self._chaos("completed")

    def _execute(self, payload: Dict[str, Any],
                 task: str) -> Tuple[Any, List[Tuple]]:
        """Run stage task ``task`` against the local store.

        For analyze stages, first pull every run entry the batch needs
        from the server store (the shard may have been recorded on any
        host); entries that cannot be fetched are re-recorded locally --
        determinism makes that safe, replication makes it rare.  The
        task itself runs on a stage process.  Returns the stage value
        (its store counters moved into ``stats``) plus the run keys that
        had to be re-recorded.
        """
        stage = payload["stage"]
        re_recorded: List[Tuple] = []
        if stage == "analyze":
            namespace = payload["namespace"]
            switch_probability = payload["config"].switch_probability
            for _run_index, seed, target in payload["runs"]:
                components = (seed, target, switch_probability)
                if self.store.has_run(namespace, components):
                    continue
                try:
                    pulled = replicate.pull_entry(
                        self._call, self.store, "trace", namespace,
                        components,
                    )
                except ServiceUnavailable:
                    pulled = False
                if pulled:
                    self._count("pulls")
                else:
                    self._count("pull_misses")
                    re_recorded.append(components)
        value = self.stage_pool.run(
            dict(payload, store_dir=str(self.store.root)), task
        )
        with self._lock:
            for key, count in value.pop("store", {}).items():
                self.stats["store_" + key] += count
            self.stats["executed"] += 1
            self.stats["executed_" + stage] += 1
            if re_recorded:
                self.stats["re_recorded"] += len(re_recorded)
        return value, re_recorded

    def _push_artifacts(self, payload: Dict[str, Any],
                        re_recorded: List[Tuple]) -> None:
        """Replicate what this lease produced to the server store.

        Best-effort: a push lost to a partition only costs the server
        the chance to skip work later (it can re-derive everything
        deterministically), so failures are counted, never fatal.
        """
        stage = payload["stage"]
        namespace = payload["namespace"]
        entries: List[Tuple[str, Tuple]] = []
        if stage == "size":
            entries.append(("value", sizing_key(payload["sizing_seed"])))
        elif stage == "record":
            entries.append((
                "trace",
                (payload["seed"], payload["target"],
                 payload["switch_probability"]),
            ))
        elif stage == "analyze":
            for components in re_recorded:
                entries.append(("trace", components))
            config = payload["config"]
            digest = detectors_digest(
                config.detector_suite(), config.check_soundness
            )
            for _run_index, seed, target in payload["runs"]:
                entries.append((
                    "value",
                    bundle_key(seed, target, config.switch_probability,
                               digest),
                ))
        for kind, components in entries:
            try:
                if replicate.push_entry(
                    self._call, self.store, kind, namespace, components
                ):
                    self._count("pushes")
                else:
                    self._count("push_failures")
            except ServiceUnavailable:
                self._count("push_failures")

    def _send_complete(self, lease_id: str, epoch: int, value: Any,
                       key: str) -> None:
        message = {
            "op": "worker_complete",
            "worker": self.worker_id,
            "lease": lease_id,
            "epoch": epoch,
            "value": replicate.pickle_blob(value),
        }
        deadline = time.monotonic() + _COMPLETE_GIVE_UP_S
        attempt = 0
        while True:
            try:
                reply = self._call(message)
            except ServiceUnavailable:
                if (self._server_gone.is_set()
                        or time.monotonic() >= deadline):
                    self._count("completions_abandoned")
                    return
                self._backoff_sleep(key, attempt)
                attempt += 1
                continue
            if reply.get("ok"):
                if reply.get("duplicate"):
                    self._count("completions_deduped")
                else:
                    self._count("completions")
                return
            if reply.get("error") == protocol.ERR_REPLICA_CORRUPT:
                # The value arrived damaged; re-encode and resend.
                if time.monotonic() < deadline:
                    message["value"] = replicate.pickle_blob(value)
                    self._count("completions_reencoded")
                    continue
            if reply.get("error") == protocol.ERR_UNKNOWN_WORKER:
                self._forget(message["worker"])
            self._count("completions_dropped")
            return

    def _send_fail(self, lease_id: str, epoch: int, detail: str) -> None:
        try:
            self._call({
                "op": "worker_fail",
                "worker": self.worker_id,
                "lease": lease_id,
                "epoch": epoch,
                "detail": detail[:500],
            })
        except ServiceUnavailable:
            self._count("fail_reports_lost")

    def _deregister(self) -> None:
        if self.worker_id is None:
            return
        try:
            self._call({
                "op": "worker_deregister",
                "worker": self.worker_id,
                "stats": self._agent_stats(),
            })
        except ServiceUnavailable:
            self._count("deregister_lost")

    def _agent_stats(self) -> Dict[str, int]:
        """Agent counters plus the stage pool's task counts."""
        with self._lock:
            stats = Counter(self.stats)
        if self.stage_pool is not None:
            health = self.stage_pool.health()
            stats["pooled"] = health["pooled"]
            stats["inline"] = health["inline"]
        return {key: int(value) for key, value in sorted(stats.items())}

    # -- process plumbing ------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        def _drain(_signum, _frame):
            # Finish the leases in flight, then deregister and exit 0.
            self._stop.set()

        try:
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        except ValueError:
            # Not the main thread (an embedding test); drain is then
            # requested through the event directly.
            pass

    def _summary(self, why: str) -> None:
        stats = Counter(self._agent_stats())
        store = " ".join(
            "%s=%d" % (key[len("store_"):], value)
            for key, value in stats.items() if key.startswith("store_")
        )
        sys.stderr.write(
            "cord-worker %s: %s leases=%d executed=%d pulls=%d pushes=%d "
            "re_recorded=%d deduped=%d pooled=%d inline=%d store: %s\n" % (
                self.name, why,
                stats["leases"], stats["executed"],
                stats["pulls"], stats["pushes"],
                stats["re_recorded"], stats["completions_deduped"],
                stats["pooled"], stats["inline"], store or "-",
            )
        )
        sys.stderr.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cord-worker",
        description="Remote execution agent for the cord campaign service.",
    )
    parser.add_argument("--socket", help="server unix socket path")
    parser.add_argument("--host", help="server TCP host")
    parser.add_argument("--port", type=int, help="server TCP port")
    parser.add_argument(
        "--root", required=True,
        help="worker-local state directory (its private trace store)",
    )
    parser.add_argument("--name", default="", help="worker display name")
    parser.add_argument(
        "--connect-timeout", type=float, default=10.0,
        help="per-request connect retry budget in seconds (default 10)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-request socket timeout in seconds (default 120)",
    )
    args = parser.parse_args(argv)
    if args.socket is None and args.host is None:
        parser.error("need --socket or --host/--port")
    agent = WorkerAgent(
        root=args.root,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        name=args.name,
        connect_timeout=args.connect_timeout,
        timeout=args.timeout,
    )
    return agent.run()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
