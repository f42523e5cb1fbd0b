"""``cord-worker``: a remote execution agent for the campaign service.

One agent process attaches to a ``cord-serve`` instance, leases stage
tasks (sizing / record / analyze -- the same
:func:`~repro.experiments.pipeline.run_stage_task` payloads the
in-process scheduler uses), executes them against its *own* local trace
store, replicates the artifacts it produced (and fetches the ones it
needs) through the store-replication ops, and streams completions back.

The transport is connection-per-request, so the agent's identity is its
``worker`` id, not a socket: a flapped link or a restarted server costs
a few retries, never a lost worker.  Liveness is maintained by a
background heartbeat thread; when the server declares the worker dead
(``unknown_worker``), it simply re-registers.  All reconnect paths use
capped exponential backoff with deterministic jitter
(:func:`~repro.service.client.connect_backoff`).

Shutdown semantics: SIGTERM requests a drain -- the agent finishes the
lease it holds (if any), pushes its artifacts, completes, deregisters,
and exits 0.  A server-initiated drain observed via heartbeat or lease
responses does the same.  The chaos faults ``worker_vanish`` (hard exit,
code 90), ``lease_stall`` (sleep past the lease deadline), and
``net_partition`` (a window of failed requests) are tick-gated at the
lease-lifecycle transitions ``granted`` -> ``executed`` -> ``pushed`` ->
``completed``, which is what lets the multi-host fault matrix kill or
freeze a worker at every stage of a lease in turn.
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

from repro.experiments import pipeline
from repro.injection.campaign import CampaignConfig, detectors_digest
from repro.resilience import faults
from repro.service import protocol
from repro.service.client import (
    ServiceClient,
    ServiceUnavailable,
    connect_backoff,
)
from repro.service.workers import replicate
from repro.trace.store import PackedTraceStore
from repro.workloads.registry import get_workload

#: How long a completion keeps retrying through a partition before the
#: lease is abandoned (the server will have reassigned it anyway).
_COMPLETE_GIVE_UP_S = 30.0


class WorkerAgent:
    """The lease/execute/replicate/complete loop of one worker process."""

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
        self.stats: Counter = Counter()
        self.worker_id: Optional[str] = None
        self.heartbeat_s = 2.0
        self._draining = threading.Event()
        self._server_draining = threading.Event()
        self._reregister = threading.Event()
        self._hb_stop = threading.Event()
        self._lock = threading.Lock()
        self._partition_left = 0

    # -- transport -------------------------------------------------------------

    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response, subject to the ``net_partition`` window."""
        with self._lock:
            if self._partition_left > 0:
                self._partition_left -= 1
                self.stats["partition_drops"] += 1
                raise ServiceUnavailable("injected net_partition")
        return self.client.call(message)

    def _backoff_sleep(self, attempt: int) -> None:
        time.sleep(connect_backoff(self.name, attempt))

    # -- chaos -----------------------------------------------------------------

    def _chaos(self, transition: str) -> None:
        """The worker-side fault hook, one tick per lease transition."""
        if not faults.active():
            return
        if faults.tick("worker_vanish"):
            sys.stderr.write(
                "cord-worker %s: worker_vanish at %s\n"
                % (self.name, transition)
            )
            sys.stderr.flush()
            os._exit(faults.WORKER_VANISH_EXIT_CODE)
        if faults.tick("lease_stall"):
            self.stats["stalls"] += 1
            time.sleep(faults.stall_seconds())
        if faults.tick("net_partition"):
            with self._lock:
                self._partition_left = faults.partition_requests()
            self.stats["partitions"] += 1

    # -- registration / heartbeats ---------------------------------------------

    def _register(self) -> bool:
        attempt = 0
        while not self._draining.is_set():
            try:
                reply = self._call({
                    "op": "worker_register",
                    "name": self.name,
                    "pid": os.getpid(),
                    "host": socketlib.gethostname(),
                })
            except ServiceUnavailable:
                self._backoff_sleep(attempt)
                attempt += 1
                continue
            if reply.get("ok"):
                self.worker_id = reply["worker"]
                self.heartbeat_s = float(
                    reply.get("heartbeat_s", self.heartbeat_s)
                )
                self.stats["registrations"] += 1
                return True
            if reply.get("error") == protocol.ERR_DRAINING:
                self._server_draining.set()
                return False
            time.sleep(float(reply.get("retry_after", 0.2)))
        return False

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_s):
            worker_id = self.worker_id
            if worker_id is None:
                continue
            try:
                reply = self._call({
                    "op": "worker_heartbeat", "worker": worker_id,
                })
            except ServiceUnavailable:
                self.stats["heartbeat_misses"] += 1
                continue
            if reply.get("ok"):
                if reply.get("state") == "draining":
                    self._server_draining.set()
            elif reply.get("error") == protocol.ERR_UNKNOWN_WORKER:
                self._reregister.set()

    # -- the lease loop --------------------------------------------------------

    def run(self) -> int:
        """Serve until drained; returns the process exit code (0)."""
        self._install_signal_handlers()
        if not self._register():
            self._summary("never registered")
            return 0
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="heartbeat", daemon=True
        )
        heartbeat.start()
        attempt = 0
        lost_since: Optional[float] = None
        # A registered worker that cannot reach the server for a full
        # connect budget concludes the server is gone and drains out
        # (exit 0) instead of retrying forever.  Each failed call has
        # already burned ``connect_timeout`` inside the client's own
        # connect-retry loop, so one grace window past the first
        # failure is a conservative "it is really dead" signal.
        lost_grace = max(self.connect_timeout, 4 * self.heartbeat_s, 2.0)
        try:
            while not self._draining.is_set():
                if self._reregister.is_set():
                    self._reregister.clear()
                    self.stats["reregistrations"] += 1
                    if not self._register():
                        break
                try:
                    # An idle request is held server-side until a task is
                    # leasable; half the socket timeout bounds the hold.
                    reply = self._call({
                        "op": "worker_lease", "worker": self.worker_id,
                        "timeout_s": self.client.timeout / 2.0,
                    })
                except ServiceUnavailable:
                    now = time.monotonic()
                    if lost_since is None:
                        lost_since = now
                    elif now - lost_since >= lost_grace:
                        self.stats["server_lost"] += 1
                        self._server_draining.set()
                        break
                    self._backoff_sleep(attempt)
                    attempt += 1
                    continue
                lost_since = None
                if not reply.get("ok"):
                    if reply.get("error") == protocol.ERR_UNKNOWN_WORKER:
                        self._reregister.set()
                    else:
                        self._backoff_sleep(attempt)
                        attempt += 1
                    continue
                attempt = 0
                if reply.get("draining"):
                    self._server_draining.set()
                if reply.get("idle", False) or "lease" not in reply:
                    # The server already held the request: ask again at
                    # once (the loop condition catches a local drain).
                    if self._server_draining.is_set():
                        break
                    continue
                self._handle_lease(reply)
                if self._server_draining.is_set():
                    break
        finally:
            self._hb_stop.set()
            self._deregister()
            self._summary("drained")
        return 0

    def _handle_lease(self, grant: Dict[str, Any]) -> None:
        """Execute one granted lease end to end (never raises)."""
        lease_id = grant["lease"]
        epoch = int(grant.get("epoch", 0))
        self.stats["leases"] += 1
        self._chaos("granted")
        try:
            payload = replicate.unpickle_blob(
                grant["payload"], "lease payload"
            )
        except replicate.ReplicaIntegrityError as exc:
            self.stats["payload_corrupt"] += 1
            self._send_fail(lease_id, epoch, "corrupt payload: %s" % exc)
            return
        try:
            value, re_recorded = self._execute(payload)
        except ServiceUnavailable as exc:
            self._send_fail(lease_id, epoch, "replication lost: %s" % exc)
            return
        except Exception as exc:  # noqa: BLE001 - reported to the server
            self.stats["task_errors"] += 1
            self._send_fail(
                lease_id, epoch, "%s: %s" % (type(exc).__name__, exc)
            )
            return
        self._chaos("executed")
        self._push_artifacts(payload, re_recorded)
        self._chaos("pushed")
        self._send_complete(lease_id, epoch, value)
        self._chaos("completed")

    def _execute(self, payload: Dict[str, Any]) -> Tuple[Any, List[Tuple]]:
        """Run one stage task against the local store.

        For analyze stages, first pull every run entry the batch needs
        from the server store (the shard may have been recorded on any
        host); entries that cannot be fetched are re-recorded locally --
        determinism makes that safe, replication makes it rare.  Returns
        the stage value plus the run keys that had to be re-recorded.
        """
        stage = payload["stage"]
        factory = get_workload(payload["workload"]).program_factory(
            payload["params"]
        )
        re_recorded: List[Tuple] = []
        if stage == "analyze":
            namespace = payload["namespace"]
            for _run_index, seed, target in payload["runs"]:
                components = (seed, target, payload["switch_probability"])
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
                    self.stats["pulls"] += 1
                else:
                    self.stats["pull_misses"] += 1
                    re_recorded.append(components)
        value = pipeline.run_stage_task(
            payload, store=self.store, factory=factory
        )
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
            entries.append(
                ("value", ("sync_instances", payload["sizing_seed"]))
            )
        elif stage == "record":
            entries.append((
                "trace",
                (payload["seed"], payload["target"],
                 payload["switch_probability"]),
            ))
        elif stage == "analyze":
            for components in re_recorded:
                entries.append(("trace", components))
            digest = detectors_digest(
                CampaignConfig().detector_suite(),
                payload["check_soundness"],
            )
            for _run_index, seed, target in payload["runs"]:
                entries.append((
                    "value",
                    ("outcomes", seed, target,
                     payload["switch_probability"], digest),
                ))
        for kind, components in entries:
            try:
                if replicate.push_entry(
                    self._call, self.store, kind, namespace, components
                ):
                    self.stats["pushes"] += 1
                else:
                    self.stats["push_failures"] += 1
            except ServiceUnavailable:
                self.stats["push_failures"] += 1

    def _send_complete(self, lease_id: str, epoch: int, value: Any) -> None:
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
                if time.monotonic() >= deadline:
                    self.stats["completions_abandoned"] += 1
                    return
                self._backoff_sleep(attempt)
                attempt += 1
                continue
            if reply.get("ok"):
                if reply.get("duplicate"):
                    self.stats["completions_deduped"] += 1
                else:
                    self.stats["completions"] += 1
                return
            if reply.get("error") == protocol.ERR_REPLICA_CORRUPT:
                # The value arrived damaged; re-encode and resend.
                if time.monotonic() < deadline:
                    message["value"] = replicate.pickle_blob(value)
                    self.stats["completions_reencoded"] += 1
                    continue
            if reply.get("error") == protocol.ERR_UNKNOWN_WORKER:
                self._reregister.set()
            self.stats["completions_dropped"] += 1
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
            self.stats["fail_reports_lost"] += 1

    def _deregister(self) -> None:
        if self.worker_id is None:
            return
        try:
            self._call({
                "op": "worker_deregister",
                "worker": self.worker_id,
                "stats": {key: int(value)
                          for key, value in sorted(self.stats.items())},
            })
        except ServiceUnavailable:
            self.stats["deregister_lost"] += 1

    # -- process plumbing ------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        def _drain(_signum, _frame):
            # Finish the current lease, then deregister and exit 0.
            self._draining.set()

        try:
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        except ValueError:
            # Not the main thread (an embedding test); drain is then
            # requested through the event directly.
            pass

    def _summary(self, why: str) -> None:
        sys.stderr.write(
            "cord-worker %s: %s leases=%d executed=%d pulls=%d pushes=%d "
            "re_recorded=%d deduped=%d\n" % (
                self.name, why,
                self.stats["leases"], self.stats["executed"],
                self.stats["pulls"], self.stats["pushes"],
                self.stats["re_recorded"], self.stats["completions_deduped"],
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
