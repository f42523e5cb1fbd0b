"""Campaign-service micro-benchmarks: submit-to-result overhead.

Measures the service *plane*, not the simulator: a warm job (the result
document already durable) isolates protocol + WAL + scheduling overhead
per round trip, and a cold job measures end-to-end latency for a small
real campaign through the server against the same campaign run
in-process (the service tax).

``CORD_SVC_THROUGHPUT_MIN`` (warm submit->result round trips per
second, default 20) gates the warm path so protocol or WAL regressions
fail loudly in CI rather than drifting.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.injection.campaign import CampaignConfig, run_campaign
from repro.service.client import ServiceClient
from repro.workloads import WorkloadParams, get_workload

THROUGHPUT_MIN_ENV = "CORD_SVC_THROUGHPUT_MIN"
_DEFAULT_THROUGHPUT_MIN = 20.0

#: Distributed floor is end-to-end cold jobs (record + analyze + full
#: store replication over the socket) per second -- deliberately
#: conservative so only a stall/livelock regression trips it.
DIST_THROUGHPUT_MIN_ENV = "CORD_SVC_DIST_THROUGHPUT_MIN"
_DEFAULT_DIST_THROUGHPUT_MIN = 0.05

WARM_ROUNDTRIPS = 30
DIST_JOBS = 3
DIST_WORKERS = 2
SPEC = dict(runs=3, seed=77, scale=0.5)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _floor(env_name: str, default: float) -> float:
    raw = os.environ.get(env_name, "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return default


def _throughput_min() -> float:
    return _floor(THROUGHPUT_MIN_ENV, _DEFAULT_THROUGHPUT_MIN)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One in-process server on a unix socket, drained at teardown."""
    root = tmp_path_factory.mktemp("svc-bench")
    os.environ.setdefault("REPRO_FSYNC", "0")

    def _serve():
        from repro.service.server import serve

        # Constructed inside the thread so the event loop owning the
        # server's primitives is the one asyncio.run creates here.
        asyncio.run(serve(root=root, concurrency=2))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    client = ServiceClient(socket_path=root / "service.sock")
    client.wait_ready()
    yield client
    client.drain()
    thread.join(timeout=60)


def test_service_cold_job_latency(benchmark, service):
    """End-to-end cold campaign through the server vs in-process."""

    def cold_job():
        response = service.submit("fft", **SPEC)
        assert response["ok"], response
        final = service.result(response["job"])
        assert final["state"] == "committed"
        return final

    final = benchmark(cold_job)
    # The service path must agree with the in-process campaign to the
    # byte -- the overhead being measured buys fault tolerance, not a
    # different answer.
    from repro.injection.campaign import format_campaign_report

    workload = get_workload("fft")
    campaign = run_campaign(
        workload.program_factory(WorkloadParams(scale=SPEC["scale"])),
        "fft",
        CampaignConfig(n_runs=SPEC["runs"], base_seed=SPEC["seed"]),
    )
    assert final["report"] == format_campaign_report(campaign)


def test_service_warm_roundtrip_throughput(benchmark, service):
    """Warm submit->result round trips per second (gated)."""
    # Ensure the result document is durable before timing.
    first = service.submit("fft", **SPEC)
    job = first.get("job") or first
    assert service.result(job)["state"] == "committed"

    def roundtrips():
        for _ in range(WARM_ROUNDTRIPS):
            response = service.submit("fft", **SPEC)
            assert response["ok"], response
            final = service.result(response["job"])
            assert final["state"] == "committed"
            assert final["stats"]["result_hit"] == 1
        return WARM_ROUNDTRIPS

    start = time.perf_counter()
    count = benchmark(roundtrips)
    elapsed = time.perf_counter() - start
    throughput = count / elapsed
    floor = _throughput_min()
    print("\nwarm service throughput: %.1f jobs/s (floor %.1f)"
          % (throughput, floor))
    assert throughput >= floor, (
        "warm submit->result throughput %.1f jobs/s fell below %s=%.1f"
        % (throughput, THROUGHPUT_MIN_ENV, floor)
    )


def test_service_distributed_throughput(benchmark, service, tmp_path):
    """Cold submit->result jobs per second through remote workers.

    The in-process server leases every stage task to ``DIST_WORKERS``
    ``cord-worker`` subprocesses with private trace stores, so each
    job's recordings and outcome bundles cross the replication
    sub-protocol twice.  Gated by ``CORD_SVC_DIST_THROUGHPUT_MIN``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.setdefault("REPRO_FSYNC", "0")
    env.pop("REPRO_FAULTS", None)
    socket_path = service.socket_path
    workers = []
    for index in range(DIST_WORKERS):
        worker_root = tmp_path / ("wk%d" % index)
        worker_root.mkdir()
        workers.append(subprocess.Popen(
            [sys.executable, "-m", "repro.service", "worker",
             "--socket", str(socket_path),
             "--root", str(worker_root),
             "--name", "bench%d" % index,
             "--connect-timeout", "10"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ))
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if service.health()["workers"]["live"] >= DIST_WORKERS:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("bench workers never attached")

        def cold_jobs():
            remote = 0
            for index in range(DIST_JOBS):
                response = service.submit(
                    "fft", runs=SPEC["runs"], seed=9000 + index,
                    scale=SPEC["scale"],
                )
                assert response["ok"], response
                final = service.result(response["job"])
                assert final["state"] == "committed"
                remote += final["stats"].get("remote", {}).get(
                    "remote_completions", 0
                )
            assert remote > 0, "no stage task ever ran on a worker"
            return DIST_JOBS

        start = time.perf_counter()
        count = benchmark(cold_jobs)
        elapsed = time.perf_counter() - start
        throughput = count / elapsed
        floor = _floor(DIST_THROUGHPUT_MIN_ENV,
                       _DEFAULT_DIST_THROUGHPUT_MIN)
        print("\ndistributed service throughput: %.2f jobs/s "
              "(%d workers, floor %.2f)"
              % (throughput, DIST_WORKERS, floor))
        assert throughput >= floor, (
            "distributed submit->result throughput %.2f jobs/s fell "
            "below %s=%.2f"
            % (throughput, DIST_THROUGHPUT_MIN_ENV, floor)
        )
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.send_signal(signal.SIGTERM)
        for worker in workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(timeout=10)
