"""Crash-recovery matrix for the campaign server.

The core robustness claim: a server killed at *any* job-state WAL
transition restarts, replays the WAL, resumes every acknowledged job,
and finishes it to a report byte-identical to the serial CLI path --
without re-recording any trace that was already durable.

The matrix arms the ``svc_kill`` chaos fault at each WAL tick of a
fresh server's first job in turn (see the tick map below), lets the
real subprocess die with exit code 89, restarts it on the same root,
and checks the contract end to end.  Roots are pre-warmed with the
campaign's *recordings only* (``trace-*`` store files, never the
``value-*`` analysis/result documents), so "no re-recording" is
assertable as ``simulated == 0`` while sizing, analysis, and the
result commit still genuinely re-execute.

WAL ticks of a fresh server's first job::

    1  svc-begin          (never killed: nothing accepted yet)
    2  accepted           (durable before the submit reply)
    3  sharded
    4  recording
    5  analyzing
    6  committed          (after the result document is durable)
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.injection.campaign import (
    CampaignConfig,
    format_campaign_report,
    run_campaign,
)
from repro.resilience.checkpoint import INTERRUPTED_EXIT_CODE
from repro.resilience.faults import SVC_KILL_EXIT_CODE
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.executor import execute_job
from repro.service.jobs import CampaignSpec
from repro.workloads.registry import get_workload

SPEC = CampaignSpec(workload="fft", runs=4, seed=13, scale=0.5)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_FSYNC"] = "0"  # tmpfs-friendly; durability order still holds
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


def _start(root, **extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--root",
         str(root)],
        env=_env(**extra),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _client(root):
    return ServiceClient(socket_path=Path(root) / "service.sock")


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """Expected report + a template store holding the spec's recordings."""
    template = tmp_path_factory.mktemp("svc-template")
    os.environ.setdefault("REPRO_FSYNC", "0")
    outcome = execute_job(SPEC, template)
    workload = get_workload(SPEC.workload)
    campaign = run_campaign(
        workload.program_factory(SPEC.workload_params()),
        SPEC.workload,
        CampaignConfig(n_runs=SPEC.runs, base_seed=SPEC.seed),
    )
    expected = format_campaign_report(campaign)
    assert outcome["report"] == expected  # executor vs in-process CLI path
    return {"traces": template / "traces", "report": expected}


def _prewarmed_root(tmp_path, warm) -> Path:
    """A fresh server root seeded with recordings but no analysis/results."""
    root = tmp_path / "root"
    traces = root / "traces"
    traces.mkdir(parents=True)
    copied = 0
    for entry in warm["traces"].iterdir():
        if entry.name.startswith("trace-"):
            shutil.copy2(entry, traces / entry.name)
            copied += 1
    assert copied >= SPEC.runs  # every run's recording (plus sizing runs)
    return root


def _submit_may_die(client):
    """Submit SPEC; None when the server died before replying."""
    try:
        response = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
            tenant="matrix",
        )
    except ServiceUnavailable:
        return None
    return response.get("job")


@pytest.mark.parametrize("tick,killed_after", [
    (2, "accepted"),
    (3, "sharded"),
    (4, "recording"),
    (5, "analyzing"),
    (6, "committed"),
])
def test_kill_at_every_wal_transition(tmp_path, warm, tick, killed_after):
    root = _prewarmed_root(tmp_path, warm)
    client = _client(root)

    # Life 1: armed to die right after the `killed_after` WAL append.
    proc = _start(root, REPRO_FAULTS="svc_kill:%d" % tick)
    client.wait_ready()
    job_id = _submit_may_die(client)
    assert proc.wait(timeout=60) == SVC_KILL_EXIT_CODE

    # Life 2: plain restart on the same root resumes from the WAL.
    proc = _start(root)
    try:
        health = client.wait_ready()
        jobs = health["jobs_list"]
        assert len(jobs) == 1, (
            "the accepted job must survive a kill after %r" % killed_after
        )
        if job_id is not None:  # the submit reply made it out
            assert jobs[0]["job"] == job_id
        job_id = jobs[0]["job"]

        final = client.result(job_id, timeout_s=120)
        assert final["ok"] is True
        assert final["state"] == "committed"
        # Byte-identical to the CLI path, every kill position.
        assert final["report"] == warm["report"]
        # Durable recordings were never redone (the root held them all).
        assert final["stats"].get("simulated", 0) == 0
        assert client.status(job_id)["resumed"] is True

        client.drain()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_sigterm_drains_and_resume_is_byte_identical(tmp_path, warm):
    """SIGTERM mid-job: exit 71, restart resumes, report unchanged.

    No pre-warming here -- the job records for real, so the kill lands
    mid-recording and the resumed life must skip exactly the runs that
    became durable before the signal.
    """
    root = tmp_path / "root"
    client = _client(root)
    proc = _start(root)
    try:
        client.wait_ready()
        response = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
        )
        job_id = response["job"]
        deadline = time.monotonic() + 60
        while client.status(job_id)["state"] in ("accepted", "sharded"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == INTERRUPTED_EXIT_CODE

        proc = _start(root)
        client.wait_ready()
        final = client.result(job_id, timeout_s=120)
        assert final["ok"] is True
        assert final["report"] == warm["report"]
        assert client.status(job_id)["resumed"] is True

        client.drain()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_store_corruption_mid_job_self_heals(tmp_path, warm):
    """``store_corrupt_mid_job`` tears a durable recording between the
    record and analyze phases; the store must quarantine it, re-record
    deterministically, and the report must not move a byte."""
    root = _prewarmed_root(tmp_path, warm)
    client = _client(root)
    proc = _start(root, REPRO_FAULTS="store_corrupt_mid_job")
    try:
        client.wait_ready()
        response = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
        )
        final = client.result(response["job"], timeout_s=120)
        assert final["ok"] is True
        assert final["report"] == warm["report"]
        # Exactly the torn entry was re-recorded; the rest replayed.
        store_stats = final["stats"].get("store", {})
        assert store_stats.get("quarantined", 0) >= 1
        client.drain()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_restart_replays_interleaved_lease_records(tmp_path, warm):
    """A WAL mixing job transitions with worker lease-epoch records --
    grants, an expiry/requeue/re-grant at epoch 2, a duplicate late
    completion, and a torn tail mid-lease -- must replay cleanly: the
    restarted server resumes the job and commits the byte-identical
    report with zero re-recording."""
    from repro.service.jobs import Job, JobRegistry

    root = _prewarmed_root(tmp_path, warm)
    registry = JobRegistry(root)
    registry.begin()
    job_id = registry.allocate_job_id(SPEC)
    registry.log_accepted(Job(job_id=job_id, tenant="matrix", spec=SPEC))
    registry.log_state(job_id, "sharded")
    registry.log_state(job_id, "recording")
    for event, task, epoch in [
        ("grant", "record/0", 1),
        ("grant", "record/1", 1),
        ("expire", "record/0", 1),
        ("requeue", "record/0", 1),
        ("grant", "record/0", 2),
        ("done", "record/1", 1),
        ("duplicate", "record/0", 1),
    ]:
        registry.log_lease({
            "event": event, "job": job_id, "task": task,
            "epoch": epoch, "worker": "wk0001-gone",
        })
    # Tear the tail mid-lease: at worst the newest lease record is
    # forgotten, never the job.
    wal = root / "service" / "jobs.wal"
    wal.write_bytes(wal.read_bytes()[:-5])

    proc = _start(root)
    client = _client(root)
    try:
        health = client.wait_ready()
        jobs = health["jobs_list"]
        assert [entry["job"] for entry in jobs] == [job_id]

        final = client.result(job_id, timeout_s=120)
        assert final["ok"] is True
        assert final["state"] == "committed"
        assert final["report"] == warm["report"]
        assert final["stats"].get("simulated", 0) == 0
        assert client.status(job_id)["resumed"] is True

        client.drain()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _stat(pid):
    """``(state, ppid)`` of a process, or None once it is gone."""
    try:
        with open("/proc/%s/stat" % pid) as fh:
            # "pid (comm) state ppid ...": comm may hold spaces.
            state, ppid = fh.read().rpartition(")")[2].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid):
    """Pids of the live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        stat = _stat(entry) if entry.isdigit() else None
        if stat is not None and stat[0] != "Z" and stat[1] == pid:
            found.append(int(entry))
    return found


def _descendants(pid):
    """Pids of every live process below ``pid``: a server's or worker's
    pool zygote (its child) and the stage processes the zygote forks."""
    found = []
    level = _children(pid)
    while level:
        found.extend(level)
        level = [kid for parent in level for kid in _children(parent)]
    return sorted(found)


def _submit_and_wait_mid_job(client):
    job_id = client.submit(
        SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
    )["job"]
    deadline = time.monotonic() + 60
    while client.status(job_id)["state"] in ("accepted", "sharded"):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return job_id


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_stage_processes_die_with_a_killed_server(tmp_path):
    """SIGKILL the server mid-job: every process it forked exits within
    2 s."""
    root = tmp_path / "root"
    client = _client(root)
    proc = _start(root)
    try:
        client.wait_ready()
        children = _descendants(proc.pid)
        # The pool zygote and one stage process per job slot.
        assert len(children) == 3
        _submit_and_wait_mid_job(client)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while any(_alive(pid) for pid in children):
            assert time.monotonic() < deadline, (
                "stage processes outlived the server: %s"
                % [pid for pid in children if _alive(pid)]
            )
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_killed_stage_process_is_replaced(tmp_path, warm):
    """SIGKILL one stage process of an idle server: health shows a fresh
    process in its place, and jobs still commit the byte-identical
    report on the pool."""
    root = tmp_path / "root"
    client = _client(root)
    proc = _start(root)
    try:
        client.wait_ready()
        before = client.health()["stage_pool"]["pids"]
        (zygote,) = _children(proc.pid)
        assert sorted(before) == sorted(_children(zygote))
        os.kill(before[0], signal.SIGKILL)
        deadline = time.monotonic() + 10
        while client.health()["stage_pool"]["replaced"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        pool = client.health()["stage_pool"]
        assert pool["state"] == "forked"
        assert before[0] not in pool["pids"] and before[1] in pool["pids"]
        assert all(_alive(pid) for pid in pool["pids"])

        job_id = client.submit(
            SPEC.workload, runs=SPEC.runs, seed=SPEC.seed, scale=SPEC.scale,
        )["job"]
        final = client.result(job_id, timeout_s=120)
        assert final["ok"] is True
        assert final["report"] == warm["report"]
        pool = client.health()["stage_pool"]
        assert pool["replaced"] == 1
        assert pool["pooled"] >= 1
        assert pool["inline"] == 0
        assert len(_descendants(proc.pid)) == 3

        # Later jobs keep working on the pool.
        again = client.submit(
            SPEC.workload, runs=SPEC.runs + 1, seed=SPEC.seed,
            scale=SPEC.scale,
        )
        assert client.result(again["job"], timeout_s=120)["ok"] is True
        client.drain()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
