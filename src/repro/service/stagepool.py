"""Forked stage processes shared by ``cord-serve`` and ``cord-worker``.

A stage task (:func:`~repro.experiments.pipeline.run_stage_task`) is
CPU-bound Python, so threads of one interpreter cannot run two at once.
:class:`StagePool` forks one child per job slot up front and turns each
task into a blocking submit from the calling thread: the server's job
threads submit their local stage tasks, and a worker's lease threads
submit the tasks they leased, so concurrent tasks run on separate
cores.  Payloads name their store directory; a child opens that store
per task and returns its counters as the value's ``"store"`` entry.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from repro.experiments import pipeline

#: How often a stage process checks that its parent is still alive.
PARENT_POLL_S = 0.1

#: How long a stage process waits at start for its siblings to fork.
STAGE_START_TIMEOUT_S = 60.0

logger = logging.getLogger("repro.service.stagepool")


class StagePool:
    """Forked processes that run stage tasks for their parent's threads.

    :meth:`start` forks all ``processes`` children before it returns, so
    call it before opening any socket or starting any thread the
    children must not inherit.  Each child ignores SIGINT (the parent
    drains on it), takes SIGTERM's default action, and exits on its own
    once the process that forked it is gone.

    A child that dies breaks the pool for good: the in-flight task and
    every later one run in-process (``degraded``) until the parent
    restarts.  The pool is never re-forked, because children forked
    from a running parent would inherit its connections and threads.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self.degraded = False
        self._executor: Optional[ProcessPoolExecutor] = None
        self._children: List[multiprocessing.process.BaseProcess] = []
        self._lock = threading.Lock()
        self._stats: Counter = Counter()

    def start(self) -> None:
        context = multiprocessing.get_context("fork")
        # Every child must pass the barrier before any task returns, so
        # each submit finds no idle child and the executor forks one per
        # task, whether it forks eagerly or on demand (Python < 3.11.1).
        ready = context.Barrier(self.processes)
        self._executor = ProcessPoolExecutor(
            self.processes,
            mp_context=context,
            initializer=_stage_child_init,
            initargs=(os.getpid(), ready),
        )
        pids = {
            future.result()
            for future in [
                self._executor.submit(_stage_child_ready)
                for _ in range(self.processes)
            ]
        }
        self._children = [
            child for child in multiprocessing.active_children()
            if child.pid in pids
        ]

    @property
    def pids(self) -> List[int]:
        """Pids of the forked stage processes."""
        return [child.pid for child in self._children]

    def run(self, payload: Dict) -> Dict:
        """Run one stage task in a child; in-process once degraded."""
        if self._usable():
            try:
                value = self._executor.submit(
                    pipeline.run_stage_task, payload
                ).result()
            except BrokenProcessPool as exc:
                self._degrade(exc)
            else:
                self._count("pooled")
                return value
        self._count("inline")
        return pipeline.run_stage_task(payload)

    def health(self) -> Dict:
        self._usable()
        with self._lock:
            return {
                "processes": self.processes,
                "state": "degraded" if self.degraded else "forked",
                "pooled": self._stats["pooled"],
                "inline": self._stats["inline"],
            }

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._children = []

    def _usable(self) -> bool:
        # A child that died between tasks breaks the pool just as one
        # dying mid-task does; its sentinel turns ready when it exits.
        if not self.degraded and multiprocessing.connection.wait(
            [child.sentinel for child in self._children], timeout=0
        ):
            self._degrade("a stage process exited")
        return not self.degraded

    def _count(self, key: str) -> None:
        with self._lock:
            self._stats[key] += 1

    def _degrade(self, reason) -> None:
        with self._lock:
            if self.degraded:
                return
            self.degraded = True
        logger.warning(
            "stage pool broken (%s); running stage tasks in-process "
            "until restart", reason,
        )


#: The start barrier, inherited by a stage process at fork.
_READY = None


def _stage_child_init(parent: int, ready) -> None:
    global _READY
    _READY = ready
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(parent,), daemon=True,
    ).start()


def _stage_child_ready() -> int:
    _READY.wait(STAGE_START_TIMEOUT_S)
    return os.getpid()


def _exit_with_parent(parent: int) -> None:
    # A killed parent's pipes stay open in its sibling children, so
    # waiting for EOF is not enough: watch for re-parenting instead.
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(0)
