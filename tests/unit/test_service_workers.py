"""Unit coverage for the multi-host worker tier.

Drives the server-side :class:`WorkerPool` directly with an injected
clock (liveness transitions, lease deadlines, epoch bumps, at-least-once
reassignment, duplicate dedup, local fallback), the replication codec
(framing, sha256 verification, quarantine-on-mismatch, component
round-trips, install idempotence), and the client's connect-level retry
with deterministic backoff.  Everything here is in-process; the
multi-host integration suite runs the real subprocess topology.
"""

import socket
import struct
import sys
import threading
import time

import pytest

from repro.common.backoff import BACKOFF_CAP_S, backoff_delay
from repro.experiments import pipeline
from repro.injection.campaign import (
    CampaignConfig,
    campaign_run_keys,
    campaign_sizing_seed,
)
from repro.resilience import faults
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.workers import (
    PoolLimits,
    RemoteTaskError,
    UnknownLease,
    UnknownWorker,
    WorkerPool,
    replicate,
)
from repro.service.workers.remote import WorkerAgent
from repro.trace.store import PackedTraceStore, frame_payload
from repro.workloads.base import WorkloadParams


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.reset()
    yield
    faults.reset()


class Clock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _pool(clock, log=None, on_wake=None, **limits):
    defaults = dict(heartbeat_s=10.0, miss_threshold=3, lease_s=60.0)
    defaults.update(limits)
    return WorkerPool(limits=PoolLimits(**defaults), lease_log=log,
                      clock=clock, on_wake=on_wake)


def _run_tasks_bg(pool, job_id, tasks, run_local=None, **kwargs):
    """Start ``run_tasks`` on a thread; returns (thread, outcome dict)."""
    out = {}

    def body():
        try:
            out["result"] = pool.run_tasks(
                job_id, tasks,
                run_local or (lambda payload, _name: ("local", payload)),
                **kwargs,
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            out["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, out


def _lease_soon(pool, worker_id, timeout=5.0):
    """Poll until the pool grants this worker a lease."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        grant = pool.lease(worker_id)
        if grant is not None:
            return grant
        time.sleep(0.002)
    raise AssertionError("no lease granted within %.1fs" % timeout)


# -- connect backoff / client retry -------------------------------------------


def test_connect_backoff_deterministic_capped_and_jittered():
    delays = [backoff_delay("endpoint-a", n) for n in range(12)]
    assert delays == [backoff_delay("endpoint-a", n) for n in range(12)]
    # Jitter scales the bounded delay into [0.5, 1.0) of it.
    for attempt, delay in enumerate(delays):
        bounded = min(BACKOFF_CAP_S, 0.05 * 2 ** attempt)
        assert bounded * 0.5 <= delay < bounded
    # Different keys desynchronize.
    assert delays != [backoff_delay("endpoint-b", n) for n in range(12)]
    # Huge attempt numbers stay capped (no overflow).
    assert backoff_delay("endpoint-a", 10_000) < BACKOFF_CAP_S


def test_client_fail_fast_without_connect_timeout(tmp_path):
    client = ServiceClient(socket_path=tmp_path / "nope.sock")
    start = time.monotonic()
    with pytest.raises(ServiceUnavailable):
        client.health()
    assert time.monotonic() - start < 1.0


def test_client_connect_retry_bridges_late_listener(tmp_path):
    path = tmp_path / "late.sock"

    def serve_one():
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        time.sleep(0.3)  # the client must retry through this window
        server.bind(str(path))
        server.listen(1)
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as fh:
            fh.readline()
            conn.sendall(b'{"ok":true,"op":"health"}\n')
        server.close()

    thread = threading.Thread(target=serve_one, daemon=True)
    thread.start()
    client = ServiceClient(socket_path=path, connect_timeout=10.0)
    assert client.health()["ok"] is True
    thread.join(timeout=5)


def test_client_wraps_connection_reset_as_unavailable(tmp_path):
    """A server dying after accept (RST mid-stream) must surface as the
    retryable ServiceUnavailable, not a raw OSError."""
    path = tmp_path / "reset.sock"

    def serve_reset():
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(path))
        server.listen(1)
        conn, _ = server.accept()
        with conn.makefile("rb") as fh:
            fh.readline()
        # SO_LINGER(on, 0) turns close() into an RST.
        conn.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
        conn.close()
        server.close()

    thread = threading.Thread(target=serve_reset, daemon=True)
    thread.start()
    client = ServiceClient(socket_path=path, connect_timeout=5.0)
    with pytest.raises(ServiceUnavailable):
        client.health()
    thread.join(timeout=5)


def test_client_wraps_clean_close_without_reply_as_unavailable(tmp_path):
    path = tmp_path / "close.sock"

    def serve_close():
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(path))
        server.listen(1)
        conn, _ = server.accept()
        conn.close()  # no reply at all
        server.close()

    thread = threading.Thread(target=serve_close, daemon=True)
    thread.start()
    client = ServiceClient(socket_path=path, connect_timeout=5.0)
    with pytest.raises(ServiceUnavailable):
        client.health()
    thread.join(timeout=5)


def test_client_connect_retry_budget_is_bounded(tmp_path):
    client = ServiceClient(
        socket_path=tmp_path / "never.sock", connect_timeout=0.3
    )
    start = time.monotonic()
    with pytest.raises(ServiceUnavailable):
        client.health()
    assert 0.2 < time.monotonic() - start < 5.0


# -- pool limits --------------------------------------------------------------


def test_pool_limits_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SVC_HEARTBEAT_S", "0.5")
    monkeypatch.setenv("REPRO_SVC_LEASE_S", "9")
    limits = PoolLimits.from_env()
    assert (limits.heartbeat_s, limits.miss_threshold,
            limits.lease_s) == (0.5, 5, 9.0)
    # Floors hold against nonsense.
    monkeypatch.setenv("REPRO_SVC_LEASE_S", "0")
    assert PoolLimits.from_env().lease_s == 0.05


# -- liveness -----------------------------------------------------------------


def test_worker_liveness_live_suspect_dead(tmp_path):
    clock = Clock()
    pool = _pool(clock, heartbeat_s=1.0, miss_threshold=5)
    worker = pool.register(name="alpha")["worker"]
    assert pool.live_worker_count() == 1
    assert pool.health()["mode"] == "distributed"

    # Silence past 2 heartbeats: suspect (still leasable).
    clock.advance(2.5)
    pool.scan()
    assert pool.health()["suspect"] == 1
    assert pool.live_worker_count() == 1

    # A heartbeat recovers the worker.
    pool.heartbeat(worker)
    assert pool.health()["live"] == 1
    assert pool.stats["workers_recovered"] == 1

    # Silence past the miss threshold: dead, unknown from then on.
    clock.advance(5.1)
    pool.scan()
    assert pool.health()["dead"] == 1
    assert pool.health()["mode"] == "local"
    with pytest.raises(UnknownWorker):
        pool.heartbeat(worker)
    with pytest.raises(UnknownWorker):
        pool.lease(worker)


def test_heartbeat_reports_draining(tmp_path):
    pool = _pool(Clock())
    worker = pool.register()["worker"]
    assert pool.heartbeat(worker)["state"] == "serving"
    pool.drain()
    assert pool.heartbeat(worker)["state"] == "draining"
    assert pool.lease(worker) is None  # draining grants nothing


def test_register_returns_pool_knobs():
    pool = _pool(Clock(), heartbeat_s=3.0, lease_s=30.0)
    fields = pool.register(name="alpha beta!", pid=42, host="h1")
    assert fields["worker"].startswith("wk0001-alpha-beta")
    assert fields["heartbeat_s"] == 3.0
    assert fields["lease_s"] == 30.0


# -- leases: grant / complete / reassign / dedup ------------------------------


def test_remote_execution_end_to_end():
    pool = _pool(Clock())
    worker = pool.register()["worker"]
    tasks = [("t%d" % n, {"n": n}) for n in range(3)]
    thread, out = _run_tasks_bg(pool, "job-1", tasks)
    done = 0
    while done < 3:
        grant = pool.lease(worker)
        if grant is None:
            time.sleep(0.002)
            continue
        reply = pool.complete(
            worker, grant["lease"], grant["epoch"],
            ("remote", grant["payload"]["n"]),
        )
        assert reply == {"accepted": True, "duplicate": False}
        done += 1
    thread.join(timeout=5)
    values, stats, interrupted = out["result"]
    assert not interrupted
    assert values == {"t%d" % n: ("remote", n) for n in range(3)}
    assert stats["remote_completions"] == 3
    assert "local_completions" not in stats


def test_zero_workers_falls_back_to_local_execution():
    pool = _pool(Clock())
    tasks = [("t%d" % n, n) for n in range(3)]
    values, stats, interrupted = pool.run_tasks(
        "job-1", tasks, lambda payload, name: "%s=%d" % (name, payload * 10)
    )
    assert not interrupted
    # The local runner gets each task's own name.
    assert values == {"t0": "t0=0", "t1": "t1=10", "t2": "t2=20"}
    assert stats["local_completions"] == 3


def test_all_workers_dying_mid_job_falls_back_to_local():
    clock = Clock()
    pool = _pool(clock, heartbeat_s=1.0, miss_threshold=3)
    pool.register()["worker"]
    # The worker never polls again; its silence crosses the death
    # threshold, so run_tasks' internal scan must declare it dead and
    # finish the job on the executor thread.
    clock.advance(100.0)
    values, stats, _ = pool.run_tasks(
        "job-1", [("t0", 1)], lambda payload, _name: payload + 1
    )
    assert values == {"t0": 2}
    assert stats["local_completions"] == 1
    assert pool.stats["workers_lost"] == 1


def test_dead_worker_leases_reassigned_to_survivor():
    clock = Clock()
    pool = _pool(clock, heartbeat_s=1.0, miss_threshold=3, lease_s=60.0)
    doomed = pool.register(name="doomed")["worker"]
    survivor = pool.register(name="survivor")["worker"]
    thread, out = _run_tasks_bg(pool, "job-1", [("t0", "payload")])
    grant = _lease_soon(pool, doomed)
    assert grant["epoch"] == 1

    # The doomed worker goes silent; the survivor keeps heartbeating.
    clock.advance(3.5)
    pool.heartbeat(survivor)
    pool.scan()
    assert pool.stats["workers_lost"] == 1
    assert pool.stats["tasks_requeued"] == 1

    regrant = _lease_soon(pool, survivor)
    assert regrant["task"] == "t0"
    assert regrant["epoch"] == 2  # reassignment bumps the epoch
    reply = pool.complete(
        survivor, regrant["lease"], regrant["epoch"], "v2"
    )
    assert reply["accepted"] is True
    thread.join(timeout=5)
    assert out["result"][0] == {"t0": "v2"}


def test_expired_lease_requeues_and_stale_completion_is_adopted():
    clock = Clock()
    pool = _pool(clock, lease_s=1.0)
    worker = pool.register()["worker"]
    thread, out = _run_tasks_bg(pool, "job-1", [("t0", 0), ("t1", 1)])
    slow = _lease_soon(pool, worker)
    assert slow["task"] == "t0"

    # The lease outlives its deadline: expired + requeued.
    clock.advance(2.0)
    pool.heartbeat(worker)  # the worker itself is alive, only slow
    pool.scan()
    assert pool.stats["leases_expired"] == 1

    # The stalled execution still lands first: adopted (stale), the
    # requeued copy is pulled back out of the pending queue.
    reply = pool.complete(worker, slow["lease"], slow["epoch"], "slow-v")
    assert reply["accepted"] is True
    assert pool.stats["stale_completions"] == 1

    other = _lease_soon(pool, worker)
    assert other["task"] == "t1"  # t0 must not be re-granted
    pool.complete(worker, other["lease"], other["epoch"], "v1")
    thread.join(timeout=5)
    values, stats, _ = out["result"]
    assert values == {"t0": "slow-v", "t1": "v1"}
    assert stats["stale_completions"] == 1


def test_duplicate_completion_after_reassignment_is_deduped():
    clock = Clock()
    pool = _pool(clock, lease_s=1.0)
    worker = pool.register()["worker"]
    thread, out = _run_tasks_bg(pool, "job-1", [("t0", 0), ("t1", 1)])
    first = _lease_soon(pool, worker)
    assert first["task"] == "t0"
    clock.advance(2.0)
    pool.heartbeat(worker)
    pool.scan()  # expires the first lease, requeues t0

    # t0 comes back (behind t1 in the queue) with a bumped epoch.
    second = _lease_soon(pool, worker)
    third = _lease_soon(pool, worker)
    regrant = second if second["task"] == "t0" else third
    other = third if regrant is second else second
    assert regrant["epoch"] == 2
    assert pool.complete(
        worker, regrant["lease"], regrant["epoch"], "fresh-v"
    )["accepted"] is True

    # The original (retired) lease completes late: pure duplicate.
    reply = pool.complete(worker, first["lease"], first["epoch"], "stale-v")
    assert reply == {"accepted": False, "duplicate": True}
    assert pool.stats["duplicate_completions"] == 1

    pool.complete(worker, other["lease"], other["epoch"], "v1")
    thread.join(timeout=5)
    values, stats, _ = out["result"]
    assert values["t0"] == "fresh-v"  # first commit won, never replaced
    assert stats["duplicate_completions"] == 1


def test_unknown_lease_rejected():
    pool = _pool(Clock())
    worker = pool.register()["worker"]
    with pytest.raises(UnknownLease):
        pool.complete(worker, "ls999999", 1, "v")
    assert pool.stats["unknown_lease_completions"] == 1


def test_remote_failure_budget_fails_the_job():
    pool = _pool(Clock())
    worker = pool.register()["worker"]
    thread, out = _run_tasks_bg(pool, "job-1", [("t0", 0)])
    for n in range(3):
        grant = _lease_soon(pool, worker)
        reply = pool.fail(worker, grant["lease"], grant["epoch"],
                          "boom %d" % n)
        assert reply["requeued"] is (n < 2)
    thread.join(timeout=5)
    assert isinstance(out["error"], RemoteTaskError)
    assert "3 times" in str(out["error"])


def test_run_tasks_stop_predicate_interrupts():
    pool = _pool(Clock())
    pool.register()  # a live worker, so nothing runs locally
    stop = threading.Event()
    thread, out = _run_tasks_bg(
        pool, "job-1", [("t0", 0)], should_stop=stop.is_set
    )
    stop.set()
    thread.join(timeout=5)
    assert out["result"][2] is True  # interrupted


def test_on_result_can_submit_follow_up_tasks():
    pool = _pool(Clock())

    def on_result(name, value, submit):
        if name == "t0":
            submit("t1", value + 1)

    values, _stats, _ = pool.run_tasks(
        "job-1", [("t0", 1)], lambda payload, _name: payload * 2,
        on_result=on_result,
    )
    assert values == {"t0": 2, "t1": 6}


def test_deregister_requeues_open_leases_and_merges_stats():
    pool = _pool(Clock())
    worker = pool.register()["worker"]
    thread, out = _run_tasks_bg(pool, "job-1", [("t0", 5)])
    _lease_soon(pool, worker)
    released = pool.deregister(worker, stats={"executed": 7, "bad": "x"})
    assert released == 1
    assert pool.stats["agent_executed"] == 7
    assert "agent_bad" not in pool.stats
    # With the only worker gone the task finishes locally.
    thread.join(timeout=5)
    assert out["result"][0] == {"t0": ("local", 5)}


def test_unknown_worker_seen_by_two_lease_loops_registers_once(tmp_path):
    # Both lease loops get ``unknown_worker`` for the first id before
    # either re-registers; only one of them may register again.
    agent = WorkerAgent(tmp_path / "wk", socket_path=tmp_path / "no.sock",
                        name="twin")
    both_saw = threading.Barrier(2, timeout=10)
    ids = iter(["wk0001-twin", "wk0002-twin", "wk0003-twin"])

    def call(message):
        if message["op"] == "worker_register":
            return {"ok": True, "worker": next(ids), "heartbeat_s": 0.25,
                    "concurrency": 2}
        assert message["op"] == "worker_lease", message
        if message["worker"] == "wk0001-twin":
            both_saw.wait()
            return {"ok": False, "error": protocol.ERR_UNKNOWN_WORKER}
        return {"ok": True, "idle": True, "draining": True}

    agent._call = call
    assert agent._register()
    assert agent.processes == 2
    loops = [
        threading.Thread(target=agent._lease_loop, args=(index,))
        for index in range(agent.processes)
    ]
    for loop in loops:
        loop.start()
    for loop in loops:
        loop.join(timeout=30)
        assert not loop.is_alive()
    assert agent.stats["registrations"] == 2
    assert agent.stats["reregistrations"] == 1
    assert agent.worker_id == "wk0002-twin"


class _CountingStagePool:
    def run(self, payload, name):
        assert name == "size:ns"
        return {"instances": 1, "store": {"value_writes": 1}}

    def health(self):
        return {"pooled": 0, "inline": 0}


def test_lease_loops_lose_no_counter_update(tmp_path):
    # More lease loops than cores, switching threads as often as the
    # interpreter allows: every lease must show in every counter.
    grants = 400
    agent = WorkerAgent(tmp_path / "wk", socket_path=tmp_path / "no.sock")
    agent.stage_pool = _CountingStagePool()
    agent.worker_id = "wk0001"
    payload = replicate.pickle_blob({
        "stage": "size", "namespace": "ns", "sizing_seed": 7,
    })
    left = [grants]
    lock = threading.Lock()

    def call(message):
        if message["op"] == "worker_complete":
            return {"ok": True}
        assert message["op"] == "worker_lease", message
        with lock:
            if left[0] == 0:
                return {"ok": True, "idle": True, "draining": True}
            left[0] -= 1
            lease = "ls%06d" % left[0]
        return {"ok": True, "lease": lease, "epoch": 1, "task": "size:ns",
                "payload": payload}

    agent._call = call
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        loops = [
            threading.Thread(target=agent._lease_loop, args=(index,))
            for index in range(8)
        ]
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join(timeout=60)
            assert not loop.is_alive()
    finally:
        sys.setswitchinterval(interval)
    stats = agent._agent_stats()
    for key in ("leases", "executed", "executed_size", "completions",
                "push_failures", "store_value_writes"):
        assert stats[key] == grants, key


def test_unreachable_server_after_its_drain_is_gone(tmp_path):
    # A lease loop finishing a late lease after the server drained and
    # exited gives up at the first unreachable request.
    agent = WorkerAgent(tmp_path / "wk", socket_path=tmp_path / "no.sock")
    calls = []

    def unreachable(message):
        calls.append(message["op"])
        raise ServiceUnavailable("connection refused")

    agent.client.call = unreachable
    agent.worker_id = "wk0001"
    agent._server_drains()
    started = time.monotonic()
    agent._send_complete("ls000001", 1, {"instances": 1}, "wk/0")
    agent._deregister()
    assert time.monotonic() - started < 5.0
    assert calls == ["worker_complete"]
    assert agent.stats["completions_abandoned"] == 1
    assert agent.stats["deregister_lost"] == 1


def test_register_reply_without_concurrency_means_one_process(tmp_path):
    agent = WorkerAgent(tmp_path / "wk", socket_path=tmp_path / "no.sock")
    agent._call = lambda message: {"ok": True, "worker": "wk0001"}
    assert agent._register()
    assert agent.processes == 1


def test_lease_events_land_in_the_log():
    events = []
    clock = Clock()
    pool = _pool(clock, lease_s=1.0, log=events.append)
    worker = pool.register()["worker"]
    thread, out = _run_tasks_bg(pool, "job-1", [("t0", 0)])
    grant = _lease_soon(pool, worker)
    clock.advance(2.0)
    pool.heartbeat(worker)
    pool.scan()
    regrant = _lease_soon(pool, worker)
    pool.complete(worker, regrant["lease"], regrant["epoch"], "v")
    pool.complete(worker, grant["lease"], grant["epoch"], "v")
    thread.join(timeout=5)
    kinds = [(event["event"], event["epoch"]) for event in events]
    assert ("grant", 1) in kinds
    assert ("expire", 1) in kinds
    assert ("requeue", 1) in kinds
    assert ("grant", 2) in kinds
    assert ("done", 2) in kinds
    assert ("duplicate", 1) in kinds
    assert all(event["type"] == "lease" and event["job"] == "job-1"
               for event in events)


# -- the wake path ------------------------------------------------------------


def _timeline_pool(clock, timeline, **limits):
    """A pool whose lease log and wake listener share one timeline."""
    return _pool(
        clock,
        log=lambda event: timeline.append(
            (event["event"], event["task"], event.get("why"))
        ),
        on_wake=lambda: timeline.append("wake"),
        **limits,
    )


def test_wake_fires_on_enqueue_and_submit():
    timeline = []
    pool = _timeline_pool(Clock(), timeline)

    def on_result(name, value, submit):
        if name == "t0":
            submit("t1", value + 1)

    # Zero workers: everything runs on this thread, so the order of
    # wakes against grants is exact.
    pool.run_tasks("job-1", [("t0", 1)], lambda payload, _name: payload,
                   on_result=on_result)
    assert timeline == [
        "wake",  # the initial enqueue
        ("grant", "t0", None), ("done", "t0", None),
        "wake",  # on_result's submit
        ("grant", "t1", None), ("done", "t1", None),
    ]


def test_wake_fires_on_every_requeue_path_and_drain():
    clock = Clock()
    timeline = []
    pool = _timeline_pool(clock, timeline, heartbeat_s=1.0,
                          miss_threshold=3, lease_s=10.0)
    leaver = pool.register(name="leaver")["worker"]
    doomed = pool.register(name="doomed")["worker"]
    survivor = pool.register(name="survivor")["worker"]

    def tick(seconds, *alive):
        # One second at a time, so run_tasks' own scans never see a
        # heartbeating worker more than a second stale.
        for _ in range(seconds):
            clock.advance(1.0)
            for worker in alive:
                pool.heartbeat(worker)

    thread, out = _run_tasks_bg(pool, "job-1", [("t0", 0)])

    grant = _lease_soon(pool, leaver)
    pool.fail(leaver, grant["lease"], grant["epoch"], "boom")

    _lease_soon(pool, leaver)
    assert pool.deregister(leaver) == 1

    _lease_soon(pool, doomed)
    tick(11, doomed, survivor)  # the lease outlives its deadline
    pool.scan()

    _lease_soon(pool, doomed)
    tick(4, survivor)  # the holder falls silent past the miss threshold
    pool.scan()

    grant = _lease_soon(pool, survivor)
    pool.complete(survivor, grant["lease"], grant["epoch"], "v")
    thread.join(timeout=5)
    assert out["result"][0] == {"t0": "v"}

    requeues = [index for index, entry in enumerate(timeline)
                if entry != "wake" and entry[0] == "requeue"]
    assert [timeline[index][2] for index in requeues] == [
        "fail", "deregister", "deadline", "worker_lost",
    ]
    for index in requeues:
        # Each requeue wakes lease waiters before anything is granted.
        following = timeline[index + 1:]
        next_grant = next(n for n, entry in enumerate(following)
                          if entry != "wake" and entry[0] == "grant")
        assert "wake" in following[:next_grant]

    before = timeline.count("wake")
    pool.drain()
    assert timeline.count("wake") == before + 1


# -- replication codec --------------------------------------------------------


def test_blob_roundtrip_and_tamper_detection():
    framed = frame_payload(b"payload bytes")
    fields = replicate.encode_blob(framed)
    assert replicate.decode_blob(fields, "test") == framed
    tampered = dict(fields, sha256="0" * 64)
    with pytest.raises(replicate.ReplicaIntegrityError):
        replicate.decode_blob(tampered, "test")
    with pytest.raises(replicate.ReplicaIntegrityError):
        replicate.decode_blob({"data": "!!!", "sha256": "x"}, "test")


def test_pickle_blob_roundtrips_rich_values():
    value = {"tuple": (1, 2, ("nested", 3)), "float": 0.5}
    assert replicate.unpickle_blob(
        replicate.pickle_blob(value), "test"
    ) == value


def test_replica_corrupt_fault_flips_one_transfer():
    framed = frame_payload(b"x" * 64)
    fields = replicate.encode_blob(framed)
    faults.arm("replica_corrupt:2")
    assert replicate.decode_blob(fields, "t") == framed  # tick 1: clean
    with pytest.raises(replicate.ReplicaIntegrityError):
        replicate.decode_blob(fields, "t")  # tick 2: armed position
    assert replicate.decode_blob(fields, "t") == framed  # never again


def test_components_wire_roundtrip():
    components = (7, "ns", 0.25, ("outcomes", 1, 2))
    wire = replicate.components_to_wire(components)
    assert wire == [7, "ns", 0.25, ["outcomes", 1, 2]]
    assert replicate.components_from_wire(wire) == components
    with pytest.raises(ValueError):
        replicate.components_from_wire("not-a-list")


def test_install_entry_verifies_quarantines_and_dedups(tmp_path):
    store = PackedTraceStore(tmp_path / "traces")
    raw = frame_payload(b"entry payload")
    assert replicate.install_entry(store, "value", "ns", ("k", 1), raw)
    # Idempotent: the second install is a no-op duplicate.
    assert not replicate.install_entry(store, "value", "ns", ("k", 1), raw)
    assert replicate.read_entry(store, "value", "ns", ("k", 1)) == raw

    damaged = bytearray(raw)
    damaged[-1] ^= 0xFF
    with pytest.raises(replicate.ReplicaIntegrityError):
        replicate.install_entry(
            store, "value", "ns", ("k", 2), bytes(damaged)
        )
    assert store.stats["quarantined"] == 1
    assert replicate.read_entry(store, "value", "ns", ("k", 2)) is None


def _loopback(server, pushed=None):
    """A transport serving pulls and pushes from the ``server`` store;
    every pushed ``(kind, namespace, components)`` lands in ``pushed``."""
    def call(message):
        kind = replicate.ENTRY_KINDS[message["kind"]]
        components = replicate.components_from_wire(message["components"])
        if message["op"] == "repl_pull":
            found = replicate.read_entry(
                server, kind, message["namespace"], components,
            )
            if found is None:
                return {"ok": False, "error": "not_found"}
            reply = {"ok": True}
            reply.update(replicate.encode_blob(found))
            return reply
        assert message["op"] == "repl_push"
        raw_in = replicate.decode_blob(message, "push")
        replicate.install_entry(
            server, kind, message["namespace"], components, raw_in,
        )
        if pushed is not None:
            pushed.append((kind, message["namespace"], components))
        return {"ok": True, "stored": True}

    return call


def test_pull_and_push_entry_between_stores(tmp_path):
    server = PackedTraceStore(tmp_path / "server")
    worker = PackedTraceStore(tmp_path / "worker")
    raw = frame_payload(b"replicated payload")
    components = ("sync_instances", 13)
    replicate.install_entry(server, "value", "ns", components, raw)
    call = _loopback(server)

    # Pull: lands byte-identically, then short-circuits on re-pull.
    assert replicate.pull_entry(call, worker, "value", "ns", components)
    assert replicate.read_entry(worker, "value", "ns", components) == raw
    assert replicate.pull_entry(call, worker, "value", "ns", components)

    # Missing entries are a clean miss, not an error.
    assert not replicate.pull_entry(call, worker, "value", "ns", ("no", 1))

    # Push: a worker-local entry lands on the server byte-identically.
    raw2 = frame_payload(b"worker-made")
    replicate.install_entry(worker, "value", "ns", ("made", 2), raw2)
    assert replicate.push_entry(call, worker, "value", "ns", ("made", 2))
    assert replicate.read_entry(server, "value", "ns", ("made", 2)) == raw2
    # Pushing an entry we do not have fails cleanly.
    assert not replicate.push_entry(call, worker, "value", "ns", ("no", 3))


class _InlineStagePool:
    """A stage pool that runs each task in this process."""

    def run(self, payload, _name):
        return pipeline.run_stage_task(payload)


def test_push_artifacts_sends_every_entry_a_stage_wrote(tmp_path):
    # The server store is empty, so the analyze stage re-records its
    # runs on the worker before it writes their outcome bundles: the
    # pushes must name exactly the entries the stages wrote, each of
    # which exists on the worker.
    server = PackedTraceStore(tmp_path / "server")
    pushed = []
    agent = WorkerAgent(tmp_path / "wk", socket_path=tmp_path / "no.sock")
    agent.stage_pool = _InlineStagePool()
    agent._call = _loopback(server, pushed)
    campaign = pipeline.Campaign(
        "fft", WorkloadParams(scale=0.25), CampaignConfig(n_runs=2)
    )
    namespace = campaign.namespace
    size = pipeline.size_payload(
        "fft", campaign.params, "", namespace,
        campaign_sizing_seed("fft", campaign.config.base_seed),
    )
    value, re_recorded = agent._execute(size, "size:fft")
    agent._push_artifacts(size, re_recorded)
    keys = campaign_run_keys("fft", campaign.config, value["instances"])
    analyze = pipeline.analyze_payload(
        "fft", campaign.params, "", namespace, keys, campaign.config, True,
    )
    _value, re_recorded = agent._execute(analyze, "an:fft#1")
    assert len(re_recorded) == len(keys)
    agent._push_artifacts(analyze, re_recorded)

    assert agent.stats["push_failures"] == 0
    sent = {
        agent.store.entry_path(kind, ns, components)
        for kind, ns, components in pushed
    }
    assert len(sent) == len(pushed) == 1 + 2 * len(keys)
    assert all(path.exists() for path in sent)
    written = {
        path for path in agent.store.root.iterdir() if path.is_file()
    }
    assert {p for p in written if p.name.startswith("value-")} <= sent
    assert sent == written


def test_pull_entry_retries_through_corrupt_transfer(tmp_path):
    server = PackedTraceStore(tmp_path / "server")
    worker = PackedTraceStore(tmp_path / "worker")
    raw = frame_payload(b"will arrive damaged once")
    components = ("k", 1)
    replicate.install_entry(server, "value", "ns", components, raw)

    def call(message):
        reply = {"ok": True}
        reply.update(replicate.encode_blob(raw))
        return reply

    faults.arm("replica_corrupt:1")  # first transfer damaged, retry clean
    assert replicate.pull_entry(call, worker, "value", "ns", components)
    assert replicate.read_entry(worker, "value", "ns", components) == raw
    assert worker.stats["quarantined"] == 1
