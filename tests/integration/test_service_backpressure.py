"""Backpressure, quotas, fairness, and job-control on a live server.

The admission contract under flood: past the configured limits every
submission is *rejected deterministically* with a machine-readable code
and a ``retry_after`` hint -- never queued unboundedly, never silently
dropped -- while every submission that *was* acknowledged runs to a
committed report, including across a drain/restart in mid-flood.  Plus
the tenant-facing features riding on the same machinery: per-tenant
quotas, cross-tenant recording/result dedup accounting, cancellation of
queued and running jobs, and per-job deadlines.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.checkpoint import INTERRUPTED_EXIT_CODE
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.jobs import COMMITTED, RESUMABLE, JobRegistry

SRC = str(Path(__file__).resolve().parents[2] / "src")

RETRY_AFTER = 0.05


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_FSYNC"] = "0"
    env["REPRO_SVC_RETRY_AFTER_S"] = str(RETRY_AFTER)
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


class _Server:
    def __init__(self, root, **extra):
        self.root = Path(root)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--root",
             str(root)],
            env=_env(**extra),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.client = ServiceClient(socket_path=self.root / "service.sock")
        self.client.wait_ready()

    def stop(self, expect_code=0):
        if self.proc.poll() is None:
            self.client.drain()
        assert self.proc.wait(timeout=60) == expect_code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture
def server_factory(tmp_path):
    servers = []

    def start(subdir="root", **extra):
        server = _Server(tmp_path / subdir, **extra)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.kill()


def _submit_until_accepted(client, seed, tenant, rejections):
    deadline = time.monotonic() + 60
    while True:
        response = client.submit(
            "fft", runs=2, seed=seed, scale=0.5, tenant=tenant,
        )
        if response.get("ok"):
            return response["job"]
        rejections.append(response)
        assert time.monotonic() < deadline
        time.sleep(float(response.get("retry_after", RETRY_AFTER)))


def test_flood_backpressure_zero_dropped(server_factory):
    """Flood a 2-slot server with 6 jobs from 2 tenants.

    Every rejection must be retryable-with-hint; every accepted job must
    commit; nothing may be silently dropped or silently queued past the
    bound.
    """
    server = server_factory(
        REPRO_SVC_QUEUE_MAX="2",
        REPRO_SVC_CONCURRENCY="1",
    )
    client = server.client
    rejections = []
    accepted = {}
    for index in range(6):
        tenant = ("alice", "bob")[index % 2]
        accepted[_submit_until_accepted(
            client, 100 + index, tenant, rejections,
        )] = tenant

    assert len(accepted) == 6
    # The flood genuinely overran the bound, and every rejection carried
    # the deterministic code + hint.
    assert rejections
    for rejection in rejections:
        assert rejection["error"] in protocol.RETRYABLE
        assert rejection["retry_after"] == RETRY_AFTER

    # Zero dropped: every acknowledged job reaches committed.
    for job_id in accepted:
        final = client.result(job_id, timeout_s=120)
        assert final["ok"] is True, final
        assert final["state"] == "committed"

    health = client.health()
    assert health["stats"]["accepted"] == 6
    assert health["stats"].get("rejected_queue_full", 0) == len(rejections)
    assert health["jobs"]["by_state"] == {"committed": 6}
    server.stop()


def test_fault_forced_rejection_branches(server_factory):
    """The chaos faults force each rejection branch with empty queues."""
    server = server_factory(
        REPRO_FAULTS="queue_full:1,tenant_flood:1",
    )
    client = server.client
    first = client.submit("fft", runs=1, seed=1, scale=0.5)
    assert first["error"] == protocol.ERR_QUEUE_FULL
    assert first["retry_after"] == RETRY_AFTER
    second = client.submit("fft", runs=1, seed=1, scale=0.5)
    assert second["error"] == protocol.ERR_TENANT_OVER_QUOTA
    # Charges spent: the same submission is now admitted.
    third = client.submit("fft", runs=1, seed=1, scale=0.5)
    assert third["ok"] is True
    assert client.result(third["job"], timeout_s=120)["state"] == "committed"
    health = client.health()
    assert health["stats"]["rejected_queue_full"] == 1
    assert health["stats"]["rejected_tenant_over_quota"] == 1
    server.stop()


def test_tenant_quota_isolates_tenants(server_factory):
    server = server_factory(
        REPRO_SVC_QUEUE_MAX="10",
        REPRO_SVC_TENANT_MAX="1",
        REPRO_SVC_CONCURRENCY="1",
    )
    client = server.client
    a1 = client.submit("fft", runs=4, seed=21, scale=0.5, tenant="alice")
    assert a1["ok"] is True
    # Alice is at quota; her next submission bounces...
    a2 = client.submit("fft", runs=2, seed=22, scale=0.5, tenant="alice")
    assert a2["error"] == protocol.ERR_TENANT_OVER_QUOTA
    # ...but Bob's quota is his own.
    b1 = client.submit("fft", runs=2, seed=23, scale=0.5, tenant="bob")
    assert b1["ok"] is True
    assert client.result(a1["job"], timeout_s=120)["state"] == "committed"
    assert client.result(b1["job"], timeout_s=120)["state"] == "committed"
    # Quota released on completion.
    a3 = client.submit("fft", runs=2, seed=22, scale=0.5, tenant="alice")
    assert a3["ok"] is True
    assert client.result(a3["job"], timeout_s=120)["state"] == "committed"
    server.stop()


def test_cross_tenant_dedup_is_counted(server_factory):
    server = server_factory()
    client = server.client
    spec = dict(runs=3, seed=31, scale=0.5)
    first = client.submit("fft", tenant="alice", **spec)
    final_a = client.result(first["job"], timeout_s=120)
    assert final_a["state"] == "committed"
    assert final_a["stats"].get("dedup_run_hits", 0) == 0

    # Bob submits the identical campaign: zero simulation, full credit
    # to the dedup counters, byte-identical report.
    second = client.submit("fft", tenant="bob", **spec)
    final_b = client.result(second["job"], timeout_s=120)
    assert final_b["state"] == "committed"
    assert final_b["report"] == final_a["report"]
    assert final_b["stats"]["result_hit"] == 1
    assert final_b["stats"]["simulated"] == 0
    assert final_b["stats"]["dedup_run_hits"] == spec["runs"]
    assert final_b["stats"]["dedup_result_hits"] == 1

    health = client.health()
    assert health["stats"]["dedup_run_hits"] == spec["runs"]
    assert health["stats"]["dedup_result_hits"] == 1
    server.stop()


def test_cancel_queued_and_running(server_factory):
    server = server_factory(REPRO_SVC_CONCURRENCY="1")
    client = server.client
    running = client.submit("fft", runs=8, seed=41, scale=1.0)
    queued = client.submit("fft", runs=8, seed=42, scale=1.0)

    # The queued job cancels synchronously.
    response = client.cancel(queued["job"])
    assert response["state"] == "cancelled"
    final = client.result(queued["job"], timeout_s=30)
    assert final["ok"] is False
    assert final["error"] == protocol.ERR_CANCELLED
    assert final["state"] == "cancelled"

    # The running job stops at its next safe point.
    response = client.cancel(running["job"])
    assert response["state"] in ("cancelling", "cancelled")
    final = client.result(running["job"], timeout_s=120)
    assert final["ok"] is False
    assert final["error"] == protocol.ERR_CANCELLED
    assert final["state"] == "cancelled"
    # Cancelling a terminal job is a no-op acknowledgment.
    assert client.cancel(running["job"])["state"] == "cancelled"
    server.stop()


def test_deadline_exceeded_fails_the_job(server_factory):
    server = server_factory()
    client = server.client
    response = client.submit(
        "fft", runs=50, seed=51, scale=1.0, deadline_s=0.05,
    )
    final = client.result(response["job"], timeout_s=120)
    assert final["ok"] is False
    assert final["error"] == protocol.ERR_DEADLINE
    assert final["state"] == "failed"
    status = client.status(response["job"])
    assert status["error"] == protocol.ERR_DEADLINE
    server.stop()


def test_drain_mid_flood_drops_nothing(server_factory, tmp_path):
    """Drain with a full queue: exit 71, restart completes every job."""
    server = server_factory(
        "flood-root",
        REPRO_SVC_QUEUE_MAX="8",
        REPRO_SVC_CONCURRENCY="1",
    )
    client = server.client
    accepted = [
        client.submit("fft", runs=3, seed=60 + index, scale=0.5)["job"]
        for index in range(4)
    ]
    drained = client.drain()
    assert set(drained["pending"]) <= set(accepted)
    assert server.proc.wait(timeout=60) == INTERRUPTED_EXIT_CODE

    # The in-flight job may commit before the drain interrupt lands, so
    # the WAL says which jobs the restart adopts and which it resumes.
    # Jobs the drain no longer listed had already committed; with
    # concurrency 1 at most one pending job finished during the drain.
    # Every other accepted job is left resumable.
    pending = set(drained["pending"])
    replayed = JobRegistry(tmp_path / "flood-root").replay()
    assert set(replayed) == set(accepted)
    adopted = {
        job_id for job_id, entry in replayed.items()
        if entry.state == COMMITTED
    }
    assert set(accepted) - pending <= adopted
    assert len(adopted & pending) <= 1
    for job_id in set(accepted) - adopted:
        assert replayed[job_id].state in RESUMABLE

    resumed = server_factory("flood-root")
    client = resumed.client
    health = client.health()
    assert {entry["job"] for entry in health["jobs_list"]} == set(accepted)
    assert health["stats"]["resumed"] == len(accepted) - len(adopted)
    for job_id in accepted:
        final = client.result(job_id, timeout_s=120)
        assert final["ok"] is True, final
        assert final["state"] == "committed"
        assert client.status(job_id)["resumed"] is True
    resumed.stop()
