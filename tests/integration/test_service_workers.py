"""Multi-host kill/partition matrix for the campaign service.

Real subprocess topology: one ``cord-serve`` instance plus
``cord-worker`` agents attached over the unix socket, with *no shared
trace store* -- every artifact moves through the replication ops.  The
core claim under test: whatever a fault does to a worker (hard exit
mid-lease, a stall past the lease deadline, a partition window, a
corrupted transfer), the campaign result stays byte-identical to the
serial CLI path and to single-host ``cord-serve``, durably replicated
runs are never re-recorded (``simulated == 0`` on pre-warmed roots),
and duplicate completions are deduped rather than double-committed.

Worker-side faults are tick-gated at the lease-lifecycle transitions
``granted -> executed -> pushed -> completed`` (one tick each per
lease), so the matrix places each fault at every transition of the
armed worker's first lease in turn.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.resilience.faults import (
    SVC_KILL_EXIT_CODE,
    WORKER_VANISH_EXIT_CODE,
)
from repro.service.client import ServiceClient, ServiceUnavailable

from .test_service_recovery import (  # noqa: F401  (warm fixture reuse)
    SPEC,
    _env,
    _prewarmed_root,
    warm,
)

#: Fast-failover pool knobs every server in this suite runs with:
#: suspect after ~0.5s of silence, dead after 1.25s, leases expire
#: after 3s.
POOL_ENV = {
    "REPRO_SVC_HEARTBEAT_S": "0.25",
    "REPRO_SVC_LEASE_S": "3",
}


def _start_server(root, **extra):
    merged = dict(POOL_ENV)
    merged.update(extra)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--root",
         str(root)],
        env=_env(**merged),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _start_worker(server_root, worker_root, name, **extra):
    worker_root = Path(worker_root)
    worker_root.mkdir(parents=True, exist_ok=True)
    log = open(worker_root / "agent.log", "w")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service", "worker",
             "--socket", str(Path(server_root) / "service.sock"),
             "--root", str(worker_root), "--name", name,
             "--connect-timeout", "5"],
            env=_env(**extra),
            stdout=log,
            stderr=log,
        )
    finally:
        log.close()


def _client(root):
    return ServiceClient(
        socket_path=Path(root) / "service.sock", connect_timeout=10.0
    )


def _wait_attached(client, n, timeout=30.0):
    """Block until ``n`` workers are attached and live."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = client.wait_ready()["workers"]
        if workers["live"] >= n:
            return workers
        time.sleep(0.05)
    raise AssertionError("%d worker(s) never attached" % n)


def _reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _submit_and_check(client, warm_report, timeout_s=180):
    response = client.submit(
        SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
    )
    assert response.get("ok"), response
    final = client.result(response["job"], timeout_s=timeout_s)
    assert final["ok"] is True, final
    assert final["state"] == "committed"
    # The headline contract, every topology and every fault: the
    # report does not move a byte.
    assert final["report"] == warm_report
    return final


# -- happy path: distributed == single-host == CLI ----------------------------


def test_distributed_result_byte_identical(tmp_path, warm):
    """Two workers, no shared store, no faults: byte-identity plus a
    fully remote execution (zero local fallbacks)."""
    root = tmp_path / "server"
    server = _start_server(root)
    workers = [
        _start_worker(root, tmp_path / "wk1", "wk1"),
        _start_worker(root, tmp_path / "wk2", "wk2"),
    ]
    try:
        client = _client(root)
        attached = _wait_attached(client, 2)
        assert attached["mode"] == "distributed"

        final = _submit_and_check(client, warm["report"])
        remote = final["stats"].get("remote", {})
        assert remote.get("remote_completions", 0) > 0
        assert remote.get("local_completions", 0) == 0

        # Replication carried every artifact back to the server store.
        health = client.health()["workers"]
        assert health["replication"]["pushes"] > 0
        assert health["replication"].get("corrupt_rejected", 0) == 0

        client.drain()
        # Workers observe the drain via heartbeat/lease and exit 0.
        for proc in workers:
            assert proc.wait(timeout=30) == 0
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, *workers)


def test_zero_workers_degrades_to_local_transparently(tmp_path, warm):
    """No workers attached: the same submit API yields the same bytes
    through in-process execution, and health reports the degradation."""
    root = tmp_path / "server"
    server = _start_server(root)
    try:
        client = _client(root)
        health = client.wait_ready()["workers"]
        assert health["mode"] == "local"
        assert health["attached"] == 0

        final = _submit_and_check(client, warm["report"])
        assert "remote" not in final["stats"]

        client.drain()
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server)


# -- held leases --------------------------------------------------------------


def _held_lease(root, worker_id):
    """Send ``worker_lease`` on a thread; returns (thread, outcome)."""
    out = {}

    def body():
        client = ServiceClient(socket_path=Path(root) / "service.sock",
                               timeout=60.0)
        out["reply"] = client.call({
            "op": "worker_lease", "worker": worker_id, "timeout_s": 30.0,
        })
        out["at"] = time.monotonic()

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    # Still unanswered well after a round trip: the server holds it.
    thread.join(timeout=0.5)
    assert thread.is_alive(), out
    return thread, out


def test_held_lease_wakes_on_task_and_on_drain(tmp_path):
    """An idle ``worker_lease`` is held open (heartbeat 10s: a 5s hold)
    and answers as soon as a job parks a task, or as soon as the server
    drains -- both well inside the hold."""
    root = tmp_path / "server"
    server = _start_server(root, REPRO_SVC_HEARTBEAT_S="10")
    try:
        client = _client(root)
        client.wait_ready()
        worker = client.call({"op": "worker_register",
                              "name": "probe"})["worker"]
        thread, out = _held_lease(root, worker)
        response = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
        )
        assert response.get("ok"), response
        submitted = time.monotonic()
        thread.join(timeout=10)
        assert "lease" in out["reply"], out["reply"]
        assert out["at"] - submitted < 2.5

        # Hand the task back: with no live worker the job finishes
        # in-process, so the drain below leaves nothing to resume.
        released = client.call({"op": "worker_deregister",
                                "worker": worker})
        assert released["released"] == 1
        assert client.result(response["job"], timeout_s=120)["ok"] is True

        worker = client.call({"op": "worker_register",
                              "name": "probe"})["worker"]
        thread, out = _held_lease(root, worker)
        client.drain()
        drained = time.monotonic()
        thread.join(timeout=10)
        assert out["reply"]["idle"] is True
        assert out["reply"]["draining"] is True
        assert out["at"] - drained < 2.5
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server)


# -- the kill/partition matrix ------------------------------------------------

TRANSITIONS = ["granted", "executed", "pushed", "completed"]


@pytest.mark.parametrize("tick", [1, 2, 3, 4],
                         ids=lambda t: TRANSITIONS[t - 1])
@pytest.mark.parametrize("fault", [
    "worker_vanish", "lease_stall", "net_partition", "replica_corrupt",
])
def test_fault_matrix_byte_identity(tmp_path, warm, fault, tick):
    """One armed worker, each fault at each lease transition in turn.

    The pre-warmed server root holds every recording, so ``simulated ==
    0`` asserts that no durably replicated run was ever re-recorded, no
    matter where the fault lands; the job must finish (reassignment or
    local fallback) with the byte-identical report.
    """
    root = _prewarmed_root(tmp_path, warm)
    server = _start_server(root)
    worker = _start_worker(
        root, tmp_path / "wk1", "armed",
        REPRO_FAULTS="%s:%d" % (fault, tick),
        REPRO_FAULT_STALL_SECONDS="5",
        REPRO_FAULT_PARTITION_REQUESTS="4",
    )
    try:
        client = _client(root)
        _wait_attached(client, 1)
        final = _submit_and_check(client, warm["report"])
        # Durably replicated runs are never re-recorded.
        assert final["stats"].get("simulated", 0) == 0

        if fault == "worker_vanish":
            # The armed worker must actually have died at its tick...
            assert worker.wait(timeout=60) == WORKER_VANISH_EXIT_CODE
            # ...and the pool must have noticed and fallen back.
            stats = client.health()["workers"]["stats"]
            assert (
                stats.get("workers_lost", 0)
                + stats.get("leases_expired", 0)
            ) >= 1
            assert stats.get("local_completions", 0) >= 1

        client.drain()
        if fault != "worker_vanish":
            assert worker.wait(timeout=60) == 0
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, worker)


def test_lease_stall_is_expired_and_deduped(tmp_path, warm):
    """A stall past the lease deadline forces the full failover ladder:
    expiry, reassignment (or local fallback), then the stalled
    completion arriving late -- adopted or deduped, never recommitted."""
    root = _prewarmed_root(tmp_path, warm)
    server = _start_server(root)
    worker = _start_worker(
        root, tmp_path / "wk1", "staller",
        REPRO_FAULTS="lease_stall:2",  # stall after executing its lease
        REPRO_FAULT_STALL_SECONDS="5",
    )
    try:
        client = _client(root)
        _wait_attached(client, 1)
        final = _submit_and_check(client, warm["report"])
        assert final["stats"].get("simulated", 0) == 0

        stats = client.health()["workers"]["stats"]
        assert stats.get("leases_expired", 0) >= 1
        # The stalled worker's late completion was adopted (stale) or
        # deduped (duplicate) -- one of the two, never a double commit.
        assert (
            stats.get("stale_completions", 0)
            + stats.get("duplicate_completions", 0)
            + stats.get("unknown_lease_completions", 0)
            + stats.get("late_completions", 0)
        ) >= 1

        client.drain()
        assert worker.wait(timeout=60) == 0
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, worker)


def test_worker_killed_mid_lease_reassigned_to_survivor(tmp_path, warm):
    """SIGKILL the worker that holds a lease; the survivor finishes the
    job and the report does not move."""
    root = _prewarmed_root(tmp_path, warm)
    server = _start_server(root)
    workers = {
        "wk1": _start_worker(root, tmp_path / "wk1", "wk1"),
        "wk2": _start_worker(root, tmp_path / "wk2", "wk2"),
    }
    try:
        client = _client(root)
        _wait_attached(client, 2)
        response = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
        )
        assert response.get("ok"), response

        # Kill whichever worker first holds a lease.
        victim_pid = None
        deadline = time.monotonic() + 60
        while victim_pid is None and time.monotonic() < deadline:
            for entry in client.health()["workers"]["workers"]:
                if entry["leases"] > 0:
                    victim_pid = entry["pid"]
                    break
            else:
                time.sleep(0.01)
        if victim_pid is not None:  # the job may already have finished
            os.kill(victim_pid, signal.SIGKILL)

        final = client.result(response["job"], timeout_s=180)
        assert final["ok"] is True
        assert final["report"] == warm["report"]
        assert final["stats"].get("simulated", 0) == 0

        client.drain()
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, *workers.values())


# -- graceful drain -----------------------------------------------------------


def test_sigterm_worker_drains_its_lease_before_exit(tmp_path, warm):
    """SIGTERM mid-lease: the worker finishes the lease it holds,
    deregisters, and exits 0; the job completes (locally if need be)."""
    root = _prewarmed_root(tmp_path, warm)
    server = _start_server(root)
    worker = _start_worker(root, tmp_path / "wk1", "drainer")
    try:
        client = _client(root)
        _wait_attached(client, 1)
        response = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
        )
        assert response.get("ok"), response

        # SIGTERM the worker as soon as it holds a lease.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            entries = client.health()["workers"]["workers"]
            if any(entry["leases"] > 0 for entry in entries):
                break
            time.sleep(0.01)
        worker.send_signal(signal.SIGTERM)
        assert worker.wait(timeout=60) == 0  # drained, not killed

        final = client.result(response["job"], timeout_s=180)
        assert final["ok"] is True
        assert final["report"] == warm["report"]
        # A graceful drain released the lease: no expiry was needed
        # and the worker deregistered itself.
        stats = client.health()["workers"]["stats"]
        assert stats.get("workers_deregistered", 0) == 1
        assert stats.get("workers_lost", 0) == 0

        client.drain()
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, worker)


# -- restart / WAL interplay --------------------------------------------------


def test_restart_adopts_remotely_committed_result(tmp_path, warm):
    """A result committed via remote workers is adopted by a restarted
    server with zero re-recording -- and zero workers attached."""
    root = tmp_path / "server"
    server = _start_server(root)
    worker = _start_worker(root, tmp_path / "wk1", "wk1")
    try:
        client = _client(root)
        _wait_attached(client, 1)
        final = _submit_and_check(client, warm["report"])
        assert final["stats"].get("remote", {}).get(
            "remote_completions", 0
        ) > 0
        client.drain()
        assert worker.wait(timeout=60) == 0
        assert server.wait(timeout=30) == 0

        # Life 2: no workers this time.  The same spec must be served
        # from the replicated, durable result document untouched.
        server = _start_server(root)
        client.wait_ready()
        final = _submit_and_check(client, warm["report"])
        assert final["stats"]["result_hit"] == 1
        assert final["stats"]["simulated"] == 0
        client.drain()
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, worker)


def test_server_killed_mid_remote_job_resumes_byte_identical(tmp_path,
                                                             warm):
    """``svc_kill`` mid-job while lease records interleave with job
    transitions in the WAL: the restarted server replays both record
    types and completes the job (no workers attached) byte-identically."""
    root = _prewarmed_root(tmp_path, warm)
    client = _client(root)
    # Tick 4 lands among the accepted/sharded/lease appends -- the WAL
    # tail the restart replays mixes job and lease records.
    server = _start_server(root, REPRO_FAULTS="svc_kill:4")
    worker = _start_worker(root, tmp_path / "wk1", "wk1")
    try:
        client.wait_ready()
        _wait_attached(client, 1)
        try:
            client.submit(
                SPEC.workload, runs=SPEC.runs, seed=SPEC.seed,
                scale=SPEC.scale,
            )
        except (ServiceUnavailable, OSError):
            pass  # the server died before replying; the WAL has the job
        assert server.wait(timeout=60) == SVC_KILL_EXIT_CODE

        server = _start_server(root)
        health = client.wait_ready()
        jobs = health["jobs_list"]
        assert len(jobs) == 1
        final = client.result(jobs[0]["job"], timeout_s=180)
        assert final["ok"] is True
        assert final["report"] == warm["report"]
        assert final["stats"].get("simulated", 0) == 0

        client.drain()
        assert server.wait(timeout=30) == 0
    finally:
        _reap(server, worker)
