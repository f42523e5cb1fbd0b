"""Unit tests for the pre-forked process pool and the stream over it.

The service's use of the pool is pinned by the stage-pool tests in
``test_service.py``; these pin the pool itself -- replacement, retries,
per-child deadlines, the in-process fallback, the zygote's fixed start
state, and a shutdown that never hangs after a child was killed -- and
the drain and error rules of :func:`~repro.experiments.pipeline
.inline_stream` running its tasks on the pool, as the Suite does at
``--jobs N``.
"""

import json
import logging
import os
import signal
import sys
import threading
import time

import pytest

from repro.experiments.pipeline import inline_stream
from repro.resilience import faults
from repro.resilience.checkpoint import GracefulShutdown
from repro.resilience.procpool import ProcessPool

#: Set in the owner before a pool starts; its children must keep seeing
#: the start-time value.
_MARK = "CORD_PROCPOOL_TEST_MARK"


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    faults.reset()
    yield
    faults.reset()


def _task(payload):
    """``("pid",)``, ``("square", n)``, ``("env", name)``, ``("sleep",
    s)``, ``("stall_once", marker)`` (stall in the first process to see
    ``marker`` absent) or ``("raise", message)``."""
    kind = payload[0]
    if kind == "square":
        return payload[1] * payload[1]
    if kind == "env":
        return os.environ.get(payload[1])
    if kind == "sleep":
        time.sleep(payload[1])
    elif kind == "stall_once" and not os.path.exists(payload[1]):
        open(payload[1], "w").close()
        time.sleep(60)
    elif kind == "raise":
        raise KeyError(payload[1])
    return os.getpid()


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def kill_then_shutdown(iterations: int, processes: int = 2) -> None:
    """Start a pool, SIGKILL one idle child, shut the pool down; repeat.

    Every process of every iteration must be gone when ``shutdown()``
    returns.
    """
    for _ in range(iterations):
        pool = ProcessPool(_task, processes)
        pool.start()
        pids = pool.pids
        zygote = pool._zygote
        os.kill(pids[0], signal.SIGKILL)
        pool.shutdown()
        assert all(_gone(pid) for pid in pids + [zygote])


def test_kill_then_shutdown_never_hangs():
    kill_then_shutdown(50)


def test_tasks_run_in_the_children():
    pool = ProcessPool(_task, 2)
    pool.start()
    try:
        pids = set(pool.pids)
        assert {pool.run(("pid",)) for _ in range(6)} <= pids
        assert pool.health()["pooled"] == 6
    finally:
        pool.shutdown()
    assert pool.health()["state"] == "stopped"
    # A stopped pool runs in-process.
    assert pool.run(("pid",)) == os.getpid()


def test_threads_share_the_pool_without_losing_a_task():
    # More caller threads than children, switching as often as the
    # interpreter allows: every task runs on the pool exactly once.
    threads, tasks = 8, 25
    pool = ProcessPool(_task, 2)
    pool.start()
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def caller():
            for _ in range(tasks):
                seen.append(pool.run(("pid",)))

        callers = [threading.Thread(target=caller) for _ in range(threads)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
            assert not thread.is_alive()
        health = pool.health()
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert len(seen) == threads * tasks
    assert set(seen) <= set(health["pids"])
    assert health["pooled"] == threads * tasks
    assert health["inline"] == health["replaced"] == 0


def test_task_exception_is_final():
    pool = ProcessPool(_task, 1)
    pool.start()
    try:
        with pytest.raises(KeyError, match="bad key"):
            pool.run(("raise", "bad key"))
        health = pool.health()
        assert health["replaced"] == health["inline"] == 0
    finally:
        pool.shutdown()


def test_stalled_task_kills_only_its_child(tmp_path):
    # One child stalls past its deadline while its sibling is busy with
    # a task that started later and outlives that deadline: only the
    # stalled child is killed and replaced, its task is retried on the
    # replacement, and the sibling's in-flight task completes.
    pool = ProcessPool(_task, 2, timeout=1.5, max_retries=1)
    pool.start()
    try:
        before = set(pool.pids)
        stalled = {}
        stall = threading.Thread(target=lambda: stalled.update(
            pid=pool.run(("stall_once", str(tmp_path / "stalled")))
        ))
        stall.start()
        time.sleep(0.7)
        sibling = pool.run(("sleep", 1.2))
        stall.join(timeout=30)
        assert not stall.is_alive()
        health = pool.health()
    finally:
        pool.shutdown()
    after = set(health["pids"])
    assert sibling in before & after
    assert stalled["pid"] in after - before
    assert len(before - after) == 1 and len(after) == 2
    assert (health["timeouts"], health["replaced"]) == (1, 1)
    assert (health["pooled"], health["inline"]) == (2, 0)


def test_replacements_keep_the_start_environment(monkeypatch):
    # The zygote forked at start() forks every replacement, so a child
    # forked after the owner changed its environment still sees the
    # environment (and fault plan) the first children saw.
    monkeypatch.setenv(_MARK, "at-start")
    pool = ProcessPool(_task, 1)
    pool.start()
    try:
        monkeypatch.setenv(_MARK, "changed")
        os.kill(pool.pids[0], signal.SIGKILL)
        assert pool.run(("env", _MARK)) == "at-start"
        assert pool.health()["replaced"] == 1
    finally:
        pool.shutdown()


def test_worker_kill_retries_on_a_replacement(monkeypatch, caplog):
    # The fault hook runs in the child, keyed by the attempt number the
    # task carries: the first attempt dies, is logged, and the retry
    # succeeds.
    monkeypatch.setenv("REPRO_FAULTS", "worker_kill:1")
    faults.arm()
    pool = ProcessPool(_task, 2)
    pool.start()
    try:
        first = set(pool.pids)
        with caplog.at_level(logging.WARNING, "repro.resilience.procpool"):
            pid = pool.run(("pid",), "rec:fft/run0")
        assert pid not in first
        health = pool.health()
        assert (health["replaced"], health["pooled"]) == (1, 1)
    finally:
        pool.shutdown()
    assert [record.getMessage() for record in caplog.records] == [
        "task rec:fft/run0 attempt 1 lost: worker died without a result "
        "(exit code %d)" % faults.KILL_EXIT_CODE
    ]


def test_repeated_losses_poison_the_pool(monkeypatch):
    # Every pool attempt dies: each task falls back in-process after its
    # retries, and once poison_limit children are lost with no pooled
    # success, tasks run in-process without touching the pool.
    monkeypatch.setenv("REPRO_FAULTS", "worker_kill:99")
    faults.arm()
    pool = ProcessPool(_task, 1, max_retries=1)
    pool.start()
    try:
        for _ in range(pool.poison_limit):
            assert pool.run(("pid",)) == os.getpid()
        health = pool.health()
        assert health["state"] == "poisoned"
        assert health["replaced"] == pool.poison_limit
        assert health["inline"] == pool.poison_limit
    finally:
        pool.shutdown()


def test_children_exit_with_the_owner():
    # The zygote and its children leave once the process that started
    # the pool is gone, without any shutdown() call.
    read_end, write_end = os.pipe()
    owner = os.fork()
    if owner == 0:
        try:
            os.close(read_end)
            pool = ProcessPool(_task, 2)
            pool.start()
            os.write(
                write_end,
                json.dumps(pool.pids + [pool._zygote]).encode() + b"\n",
            )
            time.sleep(60)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        # The pool's processes hold the write end too: read one line.
        pids = json.loads(fh.readline())
    os.kill(owner, signal.SIGKILL)
    os.waitpid(owner, 0)
    deadline = time.monotonic() + 5
    while not all(_gone(pid) or _zombie(pid) for pid in pids):
        assert time.monotonic() < deadline, pids
        time.sleep(0.02)


def _zombie(pid):
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except OSError:
        return True


def test_shutdown_under_a_waiting_caller_runs_its_task_in_process():
    # A caller blocked on a busy child when the pool shuts down gets its
    # task done in its own process instead of an error.
    pool = ProcessPool(_task, 1)
    pool.start()
    result = {}
    caller = threading.Thread(
        target=lambda: result.update(pid=pool.run(("sleep", 0.5)))
    )
    caller.start()
    time.sleep(0.2)
    pool.shutdown()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert result["pid"] == os.getpid()
    assert pool.health()["inline"] == 1


# -- the stream over the pool ------------------------------------------------


def _collect(results):
    """An ``on_result`` that keeps every value and, for a first-round
    task ``t``, submits the follow-up ``t+`` squaring its value."""
    def on_result(name, value, submit):
        results[name] = value
        if not name.endswith("+"):
            submit(name + "+", ("square", value))
    return on_result


def test_stream_width_two_matches_width_one():
    tasks = [("t%d" % n, ("square", n)) for n in range(6)]
    pool = ProcessPool(_task, 2)
    pool.start()
    try:
        by_width = {}
        for width in (1, 2):
            results = by_width[width] = {}
            assert not inline_stream(pool.run, width=width)(
                tasks, _collect(results)
            )
        health = pool.health()
    finally:
        pool.shutdown()
    assert by_width[2] == by_width[1]
    assert by_width[1]["t3+"] == 81 and len(by_width[1]) == 12
    assert (health["pooled"], health["inline"]) == (24, 0)


def test_drain_delivers_in_flight_results():
    # stop turns true while both first tasks are in flight: nothing new
    # starts, both finish and are delivered, and the stream reports the
    # two tasks it left as interrupted.
    polls = []

    def stop():
        polls.append(None)
        return len(polls) > 2

    results = {}
    pool = ProcessPool(_task, 2)
    pool.start()
    try:
        interrupted = inline_stream(pool.run, stop, width=2)(
            [(name, ("sleep", 0.5)) for name in "abcd"],
            lambda name, value, _submit: results.update({name: value}),
        )
        health = pool.health()
    finally:
        pool.shutdown()
    assert interrupted
    assert sorted(results) == ["a", "b"]
    assert set(results.values()) <= set(health["pids"])
    assert health["pooled"] == 2


def test_raising_task_stops_dispatch_and_reraises():
    # The failing task's own exception comes back once its in-flight
    # sibling has finished; no task starts after the failure.
    started, finished = [], []
    pool = ProcessPool(_task, 2)
    pool.start()

    def run_task(payload, name):
        started.append(name)
        try:
            return pool.run(payload, name)
        finally:
            finished.append(name)

    try:
        with pytest.raises(KeyError, match="boom"):
            inline_stream(run_task, width=2)(
                [("bad", ("raise", "boom")), ("slow", ("sleep", 0.5)),
                 ("late", ("pid",))],
                lambda *_args: None,
            )
    finally:
        pool.shutdown()
    assert started == ["bad", "slow"]
    assert sorted(finished) == ["bad", "slow"]


def test_hung_workers_reaped_promptly_under_shutdown_handler(
    monkeypatch, capfd
):
    # Forked children inherit the owner's GracefulShutdown handler; the
    # zygote resets it, so a child killed at its deadline dies at once
    # instead of logging a drain request, and the retries finish fast.
    monkeypatch.setenv("REPRO_FAULTS", "worker_stall:1:30")
    faults.arm()
    # pytest captures log records in memory, so route the drain
    # handler's warning to the (fd-captured) stderr a child shares.
    handler = logging.StreamHandler()
    drain_logger = logging.getLogger("repro.resilience.checkpoint")
    drain_logger.addHandler(handler)
    results = {}
    start = time.monotonic()
    try:
        with GracefulShutdown():
            pool = ProcessPool(_task, 2, timeout=0.5)
            pool.start()
            try:
                inline_stream(pool.run, width=2)(
                    [(name, ("square", n)) for n, name in enumerate("abcd")],
                    lambda name, value, _submit: results.update({name: value}),
                )
                health = pool.health()
            finally:
                pool.shutdown()
    finally:
        elapsed = time.monotonic() - start
        drain_logger.removeHandler(handler)
    assert results == {"a": 0, "b": 1, "c": 4, "d": 9}
    assert (health["timeouts"], health["pooled"]) == (4, 4)
    assert elapsed < 2.5
    assert "received signal" not in capfd.readouterr().err
