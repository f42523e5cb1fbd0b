"""The two service workloads: ``service-local`` and ``service-remote``.

A real ``cord-serve`` subprocess at default settings (and, for
``service-remote``, one ``cord-worker`` subprocess on a private root)
takes a closed-loop load: two client connections, each submitting its
next job only after the previous one committed.  One op is one job,
timed from submit to committed.

The job list comes from the workload seed.  Every pass gives each
registry app ``ROUNDS`` (app, seed) chains at scale 0.5.  A chain is

* a *fresh* spec of 1 or 2 runs: sizing, recording, analysis, store
  writes and WAL appends;
* 2 or 3 *extend* specs, each one run longer at the same seed: run-level
  dedup replays the recorded runs beside the one new recording;
* one *repeat* of one of those specs: a result-document hit.

The seed draws the campaign seeds, the run counts (from a fixed
multiset, so every seed asks for about the same work), the repeated
spec, the split of chains between the two clients and the interleaving
of each client's jobs.  A chain's jobs all go to one client, in order,
so dedup hits never depend on timing.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    format_campaign_report,
    run_campaign,
)
from repro.service.client import ServiceClient
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload, workload_names

from passes import PassResult

SCALE = 0.5
CLIENTS = 2
#: Each pass gives every registry app this many (app, seed) chains.
ROUNDS = 1
#: Generous per-request socket timeout; a job takes well under a second.
REQUEST_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
#: The in-process reference campaigns run after the timed region, in
#: one child process per core of a 2-core host.
REFERENCE_PROCESSES = 2
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Job:
    kind: str  # "fresh", "extend" or "repeat"
    workload: str
    seed: int
    runs: int

    @property
    def spec(self) -> Tuple[str, int, int]:
        return (self.workload, self.seed, self.runs)


def job_lists(seed: int, pass_index: int) -> List[List[Job]]:
    """The per-client job sequences of one pass."""
    rng = random.Random("perfbench-service/%d/%d" % (seed, pass_index))
    apps = [app for _ in range(ROUNDS) for app in workload_names()]
    rng.shuffle(apps)
    fresh_runs = _balanced(rng, len(apps), (1, 2))
    extends = _balanced(rng, len(apps), (2, 3))
    seeds = rng.sample(range(1, 2**31), len(apps))
    chains: List[List[List[Job]]] = [[] for _ in range(CLIENTS)]
    for index, app in enumerate(apps):
        chain = [Job("fresh", app, seeds[index], fresh_runs[index])]
        for _ in range(extends[index]):
            chain.append(Job("extend", app, seeds[index],
                             chain[-1].runs + 1))
        # The repeat follows the spec it repeats, anywhere after it.
        target = rng.randrange(len(chain))
        chain.insert(rng.randint(target + 1, len(chain)), Job(
            "repeat", app, seeds[index], chain[target].runs))
        chains[index % CLIENTS].append(chain)
    lists = []
    for client_chains in chains:
        jobs: List[Job] = []
        while client_chains:
            chain = rng.choice(client_chains)
            jobs.append(chain.pop(0))
            if not chain:
                client_chains.remove(chain)
        lists.append(jobs)
    return lists


def _balanced(rng: random.Random, n: int, values) -> List:
    """``n`` picks from ``values``, as evenly spread as possible."""
    pool = [values[i % len(values)] for i in range(n)]
    rng.shuffle(pool)
    return pool


class ServiceWorkload:
    """Server (and worker) subprocesses plus the closed-loop clients."""

    remote = False

    def __init__(self, run_dir: Path, seed: int, src_dir: Path):
        self.run_dir = run_dir
        self.seed = seed
        self.src_dir = src_dir
        self.server: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.logs = []

    # -- processes -----------------------------------------------------------

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src_dir)
        return env

    def _spawn(self, name: str, args: List[str]) -> subprocess.Popen:
        log = open(self.run_dir / (name + ".log"), "wb")
        self.logs.append(log)
        # The sockets are addressed relative to run_dir: a unix socket
        # path must stay under ~100 bytes wherever the checkout lives.
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service"] + args,
            cwd=self.run_dir, env=self._env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )

    def setup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.server = self._spawn("server", ["serve", "--root", "server"])
        self.socket = os.path.relpath(
            self.run_dir / "server" / "service.sock"
        )
        client = self.client()
        client.wait_ready(timeout=START_TIMEOUT_S)
        if self.remote:
            self.worker = self._spawn("worker", [
                "worker", "--socket", "server/service.sock",
                "--root", "worker", "--name", "bench",
            ])
            deadline = time.monotonic() + START_TIMEOUT_S
            while client.health()["workers"]["live"] < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("cord-worker never attached")
                if self.worker.poll() is not None:
                    raise RuntimeError(
                        "cord-worker exited with %d" % self.worker.returncode
                    )
                time.sleep(0.02)

    def client(self) -> ServiceClient:
        return ServiceClient(socket_path=self.socket,
                             timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus the worker (``VmHWM``)."""
        total_kb = 0
        for proc in (self.server, self.worker):
            if proc is None:
                continue
            with open("/proc/%d/status" % proc.pid) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        """Drain the worker, then the server; kill what will not stop."""
        if self.worker is not None:
            _stop(self.worker, lambda: self.worker.send_signal(
                signal.SIGTERM))
        if self.server is not None:
            def drain():
                try:
                    self.client().drain()
                except OSError:
                    self.server.send_signal(signal.SIGTERM)
            _stop(self.server, drain)
        for log in self.logs:
            log.close()

    # -- one pass -------------------------------------------------------------

    def run_pass(self, index: int, tracer) -> PassResult:
        result = PassResult()
        ops = [[(result.begin(), job) for job in jobs]
               for jobs in job_lists(self.seed, index)]
        before = self.client().health()["workers"]
        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
            futures = [pool.submit(self._client_loop, client_ops, tracer)
                       for client_ops in ops]
            outcomes = [future.result() for future in futures]
        result.wall_s = time.perf_counter() - start
        after = self.client().health()["workers"]
        for client_outcomes in outcomes:
            for op, job, latency, final in client_outcomes:
                result.latencies.append(latency)
                result.outputs[op] = (job, final)
                stats = final.get("stats", {})
                if final.get("state") != "committed":
                    result.fail("job %d %s: %s" % (
                        op, job.spec,
                        final.get("detail") or final.get("error")))
                elif stats.get("simulated", 0) > 0:
                    result.op_class[op] = "cold"
                elif stats.get("result_hit"):
                    result.op_class[op] = "warm"
        _count(result, before, after)
        return result

    def _client_loop(self, client_ops, tracer):
        client = self.client()
        outcomes = []
        for op, job in client_ops:
            start = time.perf_counter()
            with tracer.span("service.job", op):
                with tracer.span("service.submit"):
                    reply = client.submit(
                        job.workload, runs=job.runs, seed=job.seed,
                        scale=SCALE,
                    )
                final = (client.result(reply["job"]) if reply.get("ok")
                         else reply)
            outcomes.append(
                (op, job, time.perf_counter() - start, final)
            )
        return outcomes

    def check_passes(self, results: List[PassResult]) -> None:
        """Every job's report against the in-process campaign's.

        Runs after the timed region, and outside any traced one, so the
        benchmark's own campaigns are neither timed nor traced.
        """
        reference = _reference_digests(
            [job for result in results
             for job, _final in result.outputs.values()], self._env()
        )
        for result in results:
            for op in sorted(result.outputs):
                job, final = result.outputs[op]
                got = (_sha256(final["report"])
                       if final.get("state") == "committed" else None)
                if got != reference[job.spec]:
                    result.mismatch(
                        "job %d %s %s: report %s, in-process %s"
                        % (op, job.kind, job.spec, got, reference[job.spec])
                    )
                if job.kind == "repeat" and got is not None and not final[
                        "stats"].get("result_hit"):
                    result.mismatch("job %d: a repeat missed the result "
                                    "document" % op)


def _count(result: PassResult, before: Dict, after: Dict) -> None:
    """Job stats summed over the pass; worker counters as deltas."""
    counts = result.counts
    for name, key in (("simulated", "simulated"), ("replayed", "replayed"),
                      ("result_hits", "result_hit")):
        counts["service." + name] = sum(
            final.get("stats", {}).get(key, 0)
            for _job, final in result.outputs.values()
        )

    def delta(section, key):
        return (after.get(section, {}).get(key, 0)
                - before.get(section, {}).get(key, 0))

    counts["workers.leases_granted"] = delta("stats", "leases_granted")
    counts["workers.remote_completions"] = delta(
        "stats", "remote_completions")
    counts["workers.repl_pushes"] = delta("replication", "pushes")
    counts["workers.repl_pulls"] = delta("replication", "pulls")
    counts["workers.repl_bytes"] = (
        delta("replication", "bytes_in") + delta("replication", "bytes_out")
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RemoteServiceWorkload(ServiceWorkload):
    remote = True


def _reference_digests(
    jobs, env: Dict[str, str]
) -> Dict[Tuple, Optional[str]]:
    """Spec -> digest of the in-process campaign's report, or None.

    The chains are split over ``REFERENCE_PROCESSES`` child processes
    running this file (``chain_digests`` below): chains as a JSON
    argument, digests as JSON on stdout.
    """
    chains: Dict[Tuple[str, int], set] = {}
    for job in jobs:
        chains.setdefault((job.workload, job.seed), set()).add(job.runs)
    tasks = [[workload, seed, sorted(runs)]
             for (workload, seed), runs in sorted(chains.items())]
    procs = []
    try:
        for shard in range(REFERENCE_PROCESSES):
            procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__),
                 json.dumps(tasks[shard::REFERENCE_PROCESSES])],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
            ))
        digests = {}
        for proc in procs:
            out, _err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError("reference process exited with %d"
                                   % proc.returncode)
            for workload, seed, by_runs in json.loads(out):
                for runs, digest in by_runs:
                    digests[(workload, seed, runs)] = digest
        return digests
    finally:
        for proc in procs:
            _stop(proc, proc.kill)


def chain_digests(workload: str, seed: int, runs_list: List[int]):
    """``[runs, digest]`` for each spec of one (app, seed) chain.

    A campaign's run schedule forks one rng per run index
    (``campaign_run_keys``), so the runs of a shorter campaign with the
    same (app, seed) are a prefix of a longer one's: one campaign at the
    longest run count gives every spec's report.  Only when that
    campaign fails its soundness check is each spec run on its own.  A
    failed campaign digests to None, as a failed job does.
    """
    longest = _campaign(workload, seed, max(runs_list))
    result = []
    for runs in runs_list:
        campaign = longest or _campaign(workload, seed, runs)
        digest = None
        if campaign is not None:
            digest = _sha256(format_campaign_report(CampaignResult(
                campaign.workload, campaign.detector_names,
                campaign.runs[:runs], campaign.sync_instances,
            )))
        result.append([runs, digest])
    return result


def _campaign(workload: str, seed: int, runs: int):
    try:
        return run_campaign(
            get_workload(workload).program_factory(
                WorkloadParams(scale=SCALE)),
            workload, CampaignConfig(n_runs=runs, base_seed=seed),
        )
    except SimulationError:
        return None


def _stop(proc: subprocess.Popen, ask) -> None:
    if proc.poll() is None:
        ask()
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
            return
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


if __name__ == "__main__":
    # A reference child: chains as a JSON argument, digests on stdout.
    print(json.dumps([
        [workload, seed, chain_digests(workload, seed, runs)]
        for workload, seed, runs in json.loads(sys.argv[1])
    ]))
