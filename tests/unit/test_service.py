"""Unit coverage for the campaign service's building blocks.

Protocol framing and validation, admission policy (including the
fault-forced rejection branches), fair-queue rotation, the job model,
the job-state WAL's replay semantics (torn tails included), and the
executor's byte-identity / idempotence contract -- everything that does
not need a live server process (the integration suites cover that).
"""

import dataclasses
import inspect
import os
import signal
import threading
import time

import pytest

from repro.experiments import pipeline
from repro.experiments.runner import trace_namespace
from repro.injection.campaign import (
    CampaignConfig,
    format_campaign_report,
    run_campaign,
)
from repro.resilience import faults
from repro.resilience.procpool import ProcessPool
from repro.service import protocol
from repro.service.__main__ import main as service_main
from repro.service.admission import (
    AdmissionController,
    FairQueue,
    ServiceLimits,
)
from repro.service.executor import JobInterrupted, execute_job
from repro.service.jobs import (
    ACCEPTED,
    ANALYZING,
    CANCELLED,
    COMMITTED,
    CampaignSpec,
    FAILED,
    Job,
    JobRegistry,
    LIFECYCLE,
    RECORDING,
    RESUMABLE,
    SHARDED,
    TERMINAL,
    job_from_replay,
)
from repro.trace.store import PackedTraceStore
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.reset()
    yield
    faults.reset()


# -- protocol -----------------------------------------------------------------


def test_encode_is_canonical_json_lines():
    line = protocol.encode_message({"b": 2, "a": 1})
    assert line == b'{"a":1,"b":2}\n'
    assert protocol.decode_message(line) == {"a": 1, "b": 2}


def test_decode_rejects_garbage():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(b"not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(b"[1,2,3]\n")


def test_validate_submit_defaults_match_cli_inject():
    fields = protocol.validate_submit({"op": "submit", "workload": "fft"})
    assert fields == {
        "workload": "fft",
        "runs": 10,
        "seed": 2006,
        "scale": 1.0,
        "switch_probability": 0.1,
        "tenant": "default",
        "deadline_s": None,
    }


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # missing workload entirely
        {"workload": "no-such-workload"},
        {"workload": "fft", "runs": 0},
        {"workload": "fft", "runs": True},  # bools are not ints here
        {"workload": "fft", "scale": 0},
        {"workload": "fft", "switch_probability": 1.5},
        {"workload": "fft", "tenant": ""},
        {"workload": "fft", "deadline_s": 0},
    ],
)
def test_validate_submit_rejects(overrides):
    message = {"op": "submit"}
    message.update(overrides)
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_submit(message)


def test_error_response_carries_retry_hint():
    response = protocol.error_response(
        protocol.ERR_QUEUE_FULL, "full", request_id=7, retry_after=0.5
    )
    assert response["ok"] is False
    assert response["error"] == protocol.ERR_QUEUE_FULL
    assert response["id"] == 7
    assert response["retry_after"] == 0.5
    assert protocol.ERR_QUEUE_FULL in protocol.RETRYABLE


# -- admission ----------------------------------------------------------------


def test_serve_flags_override_constructor_defaults(monkeypatch):
    from repro.service.server import CampaignServer

    built = []

    class _Server:
        def __init__(self, **kwargs):
            built.append(kwargs)

        async def serve(self):
            return 0

    monkeypatch.setattr("repro.service.server.CampaignServer", _Server)
    assert service_main(["serve", "--root", "r"]) == 0
    assert service_main([
        "serve", "--root", "r", "--queue-max", "9", "--retry-after",
        "0.25", "--concurrency", "3", "--deadline", "60",
    ]) == 0
    defaults, flagged = built
    assert defaults["limits"] == ServiceLimits()
    assert (ServiceLimits().queue_max, ServiceLimits().tenant_max,
            ServiceLimits().retry_after_s) == (64, 16, 1.0)
    assert "concurrency" not in defaults
    assert defaults["default_deadline_s"] is None
    params = inspect.signature(CampaignServer).parameters
    assert params["concurrency"].default == 2
    # A flag sets its value; the unset ones keep the defaults.
    assert flagged["limits"] == ServiceLimits(queue_max=9,
                                              retry_after_s=0.25)
    assert (flagged["concurrency"], flagged["default_deadline_s"]) == (
        3, 60.0,
    )


def test_admission_decision_order():
    controller = AdmissionController(
        ServiceLimits(queue_max=2, tenant_max=1, retry_after_s=0.5)
    )
    # Draining trumps everything.
    code, retry = controller.admit("a", 0, 0, True)
    assert (code, retry) == (protocol.ERR_DRAINING, 0.5)
    # Global backpressure before the tenant quota.
    code, _ = controller.admit("a", 2, 2, False)
    assert code == protocol.ERR_QUEUE_FULL
    # Tenant quota.
    code, _ = controller.admit("a", 1, 1, False)
    assert code == protocol.ERR_TENANT_OVER_QUOTA
    # Room everywhere: admitted.
    assert controller.admit("a", 1, 0, False) is None
    # Determinism: same occupancy, same verdict.
    assert controller.admit("a", 2, 2, False)[0] == protocol.ERR_QUEUE_FULL


def test_admission_chaos_faults_force_each_branch():
    controller = AdmissionController(
        ServiceLimits(queue_max=100, tenant_max=100, retry_after_s=0.1)
    )
    faults.arm("queue_full")
    code, retry = controller.admit("a", 0, 0, False)
    assert (code, retry) == (protocol.ERR_QUEUE_FULL, 0.1)
    # One charge rejects exactly one submission.
    assert controller.admit("a", 0, 0, False) is None

    faults.arm("tenant_flood:2")
    assert controller.admit("a", 0, 0, False)[0] == (
        protocol.ERR_TENANT_OVER_QUOTA
    )
    assert controller.admit("b", 0, 0, False)[0] == (
        protocol.ERR_TENANT_OVER_QUOTA
    )
    assert controller.admit("a", 0, 0, False) is None


def test_fair_queue_round_robin():
    queue = FairQueue()
    for tenant, job in (
        ("alice", "a1"), ("alice", "a2"), ("alice", "a3"),
        ("bob", "b1"), ("carol", "c1"),
    ):
        queue.push(tenant, job)
    assert len(queue) == 5
    assert queue.depths() == {"alice": 3, "bob": 1, "carol": 1}
    # Rotation: a flooding tenant cannot starve the others.
    assert [queue.pop() for _ in range(5)] == [
        "a1", "b1", "c1", "a2", "a3",
    ]
    assert queue.pop() is None


def test_fair_queue_remove():
    queue = FairQueue()
    queue.push("alice", "a1")
    queue.push("alice", "a2")
    assert queue.remove("a1") is True
    assert queue.remove("a1") is False
    assert queue.depth("alice") == 1
    assert queue.pop() == "a2"
    assert len(queue) == 0


# -- job model ----------------------------------------------------------------


def test_spec_digest_and_wire_roundtrip():
    spec = CampaignSpec(workload="fft", runs=4, seed=9, scale=0.5)
    assert spec.digest() == CampaignSpec(
        workload="fft", runs=4, seed=9, scale=0.5
    ).digest()
    assert spec.digest() != CampaignSpec(
        workload="fft", runs=4, seed=10, scale=0.5
    ).digest()
    assert CampaignSpec.from_wire(spec.to_wire()) == spec


def test_spec_namespace_matches_suite_namespace():
    # The whole cross-path dedup story rests on this equality: the
    # service must hit the recordings the sweeps/CLI made and vice versa.
    spec = CampaignSpec(workload="ocean", scale=0.7)
    assert spec.campaign().namespace == trace_namespace(
        "ocean", WorkloadParams(scale=0.7)
    )


def test_job_interrupt_first_reason_wins():
    job = Job(job_id="j1", tenant="t", spec=CampaignSpec(workload="fft"))
    assert not job.should_stop()
    job.interrupt("cancel")
    job.interrupt("drain")
    assert job.should_stop()
    assert job.stop_reason == "cancel"
    assert not job.terminal
    job.state = COMMITTED
    assert job.terminal


def test_lifecycle_partitions():
    assert set(LIFECYCLE[:-1]) == set(RESUMABLE)
    assert COMMITTED in TERMINAL
    assert not (RESUMABLE & TERMINAL)


# -- the job-state WAL --------------------------------------------------------


def _registry_with_job(tmp_path, state=RECORDING):
    registry = JobRegistry(tmp_path)
    registry.begin()
    spec = CampaignSpec(workload="fft", runs=3, seed=7, scale=0.5)
    job_id = registry.allocate_job_id(spec)
    job = Job(job_id=job_id, tenant="alice", spec=spec, deadline_s=4.0)
    registry.log_accepted(job)
    for step in (SHARDED, RECORDING, ANALYZING, COMMITTED, FAILED,
                 CANCELLED):
        if step == state:
            break
        registry.log_state(job_id, step)
    if state != ACCEPTED:
        registry.log_state(job_id, state)
    registry.close()
    return job_id, spec


def test_registry_replay_rebuilds_latest_state(tmp_path):
    job_id, spec = _registry_with_job(tmp_path, state=RECORDING)
    registry = JobRegistry(tmp_path)
    replayed = registry.replay()
    assert list(replayed) == [job_id]
    entry = replayed[job_id]
    assert entry.state == RECORDING
    assert entry.tenant == "alice"
    assert entry.deadline_s == 4.0
    job = job_from_replay(entry)
    assert job.spec == spec
    assert job.resumed is True
    # Sequencing continues after the replayed ids.
    assert registry.allocate_job_id(spec).startswith("j0002-")
    registry.close()


def test_registry_replay_terminal_failure_detail(tmp_path):
    registry = JobRegistry(tmp_path)
    spec = CampaignSpec(workload="fft")
    job_id = registry.allocate_job_id(spec)
    registry.log_accepted(Job(job_id=job_id, tenant="t", spec=spec))
    registry.log_state(job_id, FAILED, error="job_failed",
                       detail="boom")
    registry.close()
    replayed = JobRegistry(tmp_path).replay()
    assert replayed[job_id].state == FAILED
    assert replayed[job_id].error == "job_failed"
    assert replayed[job_id].detail == "boom"


def test_registry_replay_tolerates_torn_tail(tmp_path):
    job_id, _spec = _registry_with_job(tmp_path, state=ANALYZING)
    wal = tmp_path / "service" / "jobs.wal"
    data = wal.read_bytes()
    # Tear the newest record mid-frame: replay must stop there and
    # resume the job from one state earlier.
    wal.write_bytes(data[:-7])
    replayed = JobRegistry(tmp_path).replay()
    assert replayed[job_id].state == RECORDING


def test_registry_drops_job_with_lost_accepted_record(tmp_path):
    registry = JobRegistry(tmp_path)
    registry.begin()
    # A state record with no accepted record (its frame was torn away):
    # no client ever saw this id, so replay must not resurrect it.
    registry.log_state("j0009-deadbeef", RECORDING)
    registry.close()
    assert JobRegistry(tmp_path).replay() == {}


# -- lease-epoch records in the WAL -------------------------------------------


def _log_lease(registry, job_id, event, task, epoch, worker="wk0001",
               **extra):
    registry.log_lease({
        "event": event, "job": job_id, "task": task, "epoch": epoch,
        "worker": worker, **extra,
    })


def test_registry_replay_interleaves_lease_epoch_records(tmp_path):
    """Lease grants/expiries/dedups ride the job WAL and replay into
    per-task epoch high-water marks without disturbing job state."""
    registry = JobRegistry(tmp_path)
    registry.begin()
    spec = CampaignSpec(workload="fft", runs=2, seed=7)
    job_id = registry.allocate_job_id(spec)
    registry.log_accepted(Job(job_id=job_id, tenant="alice", spec=spec))
    registry.log_state(job_id, SHARDED)
    _log_lease(registry, job_id, "grant", "record/0", 1)
    registry.log_state(job_id, RECORDING)
    _log_lease(registry, job_id, "expire", "record/0", 1)
    _log_lease(registry, job_id, "requeue", "record/0", 1, why="deadline")
    _log_lease(registry, job_id, "grant", "record/0", 2, worker="wk0002")
    _log_lease(registry, job_id, "done", "record/0", 2, worker="wk0002")
    _log_lease(registry, job_id, "duplicate", "record/0", 1)
    _log_lease(registry, job_id, "grant", "record/1", 1)
    registry.close()

    replayed = JobRegistry(tmp_path).replay()
    entry = replayed[job_id]
    assert entry.state == RECORDING  # lease records never change state
    assert entry.lease_epochs == {"record/0": 2, "record/1": 1}
    assert entry.duplicate_completions == 1


def test_registry_replay_tolerates_torn_tail_mid_lease(tmp_path):
    """A WAL torn inside a lease record loses only that record: the
    job's state and every earlier lease epoch survive."""
    registry = JobRegistry(tmp_path)
    registry.begin()
    spec = CampaignSpec(workload="fft", runs=2, seed=7)
    job_id = registry.allocate_job_id(spec)
    registry.log_accepted(Job(job_id=job_id, tenant="alice", spec=spec))
    registry.log_state(job_id, RECORDING)
    _log_lease(registry, job_id, "grant", "record/0", 1)
    _log_lease(registry, job_id, "grant", "record/1", 3)
    registry.close()

    wal = tmp_path / "service" / "jobs.wal"
    wal.write_bytes(wal.read_bytes()[:-5])  # tear the newest lease record
    replayed = JobRegistry(tmp_path).replay()
    entry = replayed[job_id]
    assert entry.state == RECORDING
    assert entry.lease_epochs == {"record/0": 1}
    assert entry.duplicate_completions == 0


def test_registry_drops_lease_records_of_unaccepted_job(tmp_path):
    registry = JobRegistry(tmp_path)
    registry.begin()
    # Lease history for a job whose accepted record was torn away must
    # vanish with the job (no client ever held its id).
    _log_lease(registry, "j0009-deadbeef", "grant", "record/0", 1)
    registry.close()
    assert JobRegistry(tmp_path).replay() == {}


# -- executor -----------------------------------------------------------------


SPEC = CampaignSpec(workload="fft", runs=2, seed=5, scale=0.5)


def _cli_report(spec):
    workload = get_workload(spec.workload)
    campaign = run_campaign(
        workload.program_factory(spec.workload_params()),
        spec.workload,
        CampaignConfig(
            n_runs=spec.runs,
            base_seed=spec.seed,
            switch_probability=spec.switch_probability,
        ),
    )
    return format_campaign_report(campaign)


def test_execute_job_is_byte_identical_to_cli(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FSYNC", "0")
    phases = []
    runs = []
    outcome = execute_job(
        SPEC, tmp_path,
        on_phase=lambda name, **info: phases.append(name),
        on_run=lambda run: runs.append(run.run_index),
    )
    assert outcome["report"] == _cli_report(SPEC)
    assert phases == ["sharded", "recording", "analyzing"]
    assert runs == list(range(SPEC.runs))
    assert outcome["stats"]["simulated"] == SPEC.runs
    assert outcome["stats"]["result_hit"] == 0

    # Second execution: served from the committed campaign.
    store = PackedTraceStore(tmp_path / "traces")
    assert pipeline.load_committed(store, SPEC.campaign()) == outcome[
        "campaign"
    ]
    hit = execute_job(SPEC, tmp_path)
    assert hit["report"] == outcome["report"]
    assert hit["stats"] == {
        "result_hit": 1, "simulated": 0, "replayed": SPEC.runs,
        "store": {},
    }


@pytest.fixture
def stage_pool():
    pool = ProcessPool(pipeline.run_stage_task, 2)
    pool.start()
    yield pool
    pool.shutdown()


def _run_inline(payload, _name):
    return pipeline.run_stage_task(payload)


def _stage_runner(procs, request):
    """``run_stage`` for a job: in-process (1) or a 2-process pool (2)."""
    if procs == 1:
        return _run_inline
    return request.getfixturevalue("stage_pool").run


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_execute_job_pooled_matches_inline(tmp_path, monkeypatch,
                                           stage_pool, caplog):
    monkeypatch.setenv("REPRO_FSYNC", "0")
    outcome = execute_job(SPEC, tmp_path / "clean",
                          run_stage=stage_pool.run)
    assert outcome["report"] == _cli_report(SPEC)
    assert outcome["stats"]["result_hit"] == 0
    health = stage_pool.health()
    assert health["pooled"] > 0
    assert health["inline"] == health["replaced"] == 0

    # Every first attempt dies: each lost attempt is logged under its
    # own stage task's name, and the report does not move.
    monkeypatch.setenv("REPRO_FAULTS", "worker_kill:1")
    faults.arm()
    killing = ProcessPool(pipeline.run_stage_task, 2)
    killing.start()
    try:
        with caplog.at_level("WARNING", logger="repro.resilience.procpool"):
            outcome = execute_job(SPEC, tmp_path / "killed",
                                  run_stage=killing.run)
        health = killing.health()
    finally:
        killing.shutdown()
    assert outcome["report"] == _cli_report(SPEC)
    lost = [record.getMessage() for record in caplog.records
            if record.levelname == "WARNING"]
    assert len(lost) == health["replaced"] > 0
    names = {message.split()[1] for message in lost}
    assert len(names) == len(lost)
    assert {name.partition(":")[0] for name in names} == {
        "size", "rec", "an",
    }


@pytest.mark.parametrize("procs", [1, 2])
def test_execute_job_extend_mixes_durable_and_missing_runs(
    tmp_path, monkeypatch, request, procs
):
    # The extended job's one analyze batch holds SPEC's two durable runs
    # and two runs it must record first.
    monkeypatch.setenv("REPRO_FSYNC", "0")
    run_stage = _stage_runner(procs, request)
    extended = dataclasses.replace(SPEC, runs=SPEC.runs + 2)
    first = execute_job(SPEC, tmp_path, run_stage=run_stage)
    assert first["report"] == _cli_report(SPEC)
    outcome = execute_job(extended, tmp_path, run_stage=run_stage)
    assert outcome["report"] == _cli_report(extended)
    assert outcome["stats"]["simulated"] == 2
    assert outcome["stats"]["replayed"] == SPEC.runs


def test_stage_pool_forks_every_child_at_start(stage_pool):
    pids = stage_pool.pids
    assert len(set(pids)) == 2
    assert all(_alive(pid) for pid in pids)
    assert os.getpid() not in pids
    health = stage_pool.health()
    assert health["state"] == "forked"
    assert health["pids"] == pids


def test_stage_pool_child_killed_mid_job_is_replaced(
    tmp_path, monkeypatch, stage_pool
):
    # SIGKILL one stage process as the job's first record task goes in:
    # a fresh process takes its place and every task still runs pooled.
    monkeypatch.setenv("REPRO_FSYNC", "0")
    victim = stage_pool.pids[0]
    killed = []

    def run_stage(payload, name):
        if payload["stage"] == "record" and not killed:
            killed.append(victim)
            os.kill(victim, signal.SIGKILL)
        return stage_pool.run(payload, name)

    outcome = execute_job(SPEC, tmp_path, run_stage=run_stage)
    assert outcome["report"] == _cli_report(SPEC)
    health = stage_pool.health()
    assert health["state"] == "forked"
    assert health["replaced"] == 1
    assert health["inline"] == 0
    assert victim not in health["pids"] and len(health["pids"]) == 2
    assert all(_alive(pid) for pid in health["pids"])


def test_stage_pool_reruns_a_task_whose_process_died(tmp_path,
                                                     monkeypatch):
    # The one child is stopped, so the submitted task is still pending
    # when the child is killed: run() must rerun that very task on the
    # child's replacement.
    monkeypatch.setenv("REPRO_FSYNC", "0")
    payload = pipeline.size_payload(
        SPEC.workload, SPEC.workload_params(), str(tmp_path / "traces"),
        SPEC.campaign().namespace, 7,
    )
    pool = ProcessPool(pipeline.run_stage_task, 1)
    pool.start()
    try:
        (victim,) = pool.pids
        os.kill(victim, signal.SIGSTOP)
        killer = threading.Timer(0.3, os.kill, (victim, signal.SIGKILL))
        killer.start()
        value = pool.run(payload)
        killer.join()
        health = pool.health()
    finally:
        pool.shutdown()
    assert value["instances"] == pipeline.run_stage_task(payload)[
        "instances"
    ]
    (fresh,) = health.pop("pids")
    assert fresh != victim
    assert health == {
        "processes": 1, "state": "forked", "replaced": 1, "timeouts": 0,
        "pooled": 1, "inline": 0,
    }


def test_stage_pool_health_sees_a_child_that_died_between_tasks(
    tmp_path, monkeypatch, stage_pool
):
    # A child killed while idle is replaced as soon as health looks:
    # every process is alive again, one with a new pid, and the next
    # job's report does not move.
    monkeypatch.setenv("REPRO_FSYNC", "0")
    before = stage_pool.pids
    os.kill(before[0], signal.SIGKILL)
    deadline = time.monotonic() + 10
    while stage_pool.health()["replaced"] == 0:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    health = stage_pool.health()
    assert health["state"] == "forked"
    assert len(health["pids"]) == 2
    assert before[0] not in health["pids"] and before[1] in health["pids"]
    assert all(_alive(pid) for pid in health["pids"])
    assert health["pooled"] == 0
    outcome = execute_job(SPEC, tmp_path, run_stage=stage_pool.run)
    assert outcome["report"] == _cli_report(SPEC)
    assert stage_pool.health()["inline"] == 0


def test_execute_job_stop_raises_and_commits_nothing(tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_FSYNC", "0")
    with pytest.raises(JobInterrupted):
        execute_job(SPEC, tmp_path, stop=lambda: True)
    store = PackedTraceStore(tmp_path / "traces")
    assert pipeline.load_committed(store, SPEC.campaign()) is None


def test_execute_job_stop_mid_job_resumes_byte_identical(tmp_path,
                                                         monkeypatch):
    # The stop trips after the sizing task and the first record task:
    # the job commits nothing, and a re-run records only the rest.
    monkeypatch.setenv("REPRO_FSYNC", "0")
    stages = []

    def run_stage(payload, _name):
        stages.append(payload["stage"])
        return pipeline.run_stage_task(payload)

    with pytest.raises(JobInterrupted):
        execute_job(SPEC, tmp_path, run_stage=run_stage,
                    stop=lambda: len(stages) >= 2)
    assert stages == ["size", "record"]
    store = PackedTraceStore(tmp_path / "traces")
    assert pipeline.load_committed(store, SPEC.campaign()) is None
    outcome = execute_job(SPEC, tmp_path)
    assert outcome["report"] == _cli_report(SPEC)
    assert outcome["stats"]["simulated"] == SPEC.runs - 1
