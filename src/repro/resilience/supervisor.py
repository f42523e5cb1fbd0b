"""Supervised fan-out of named campaign tasks.

:meth:`Supervisor.run_stream` runs a stream of named tasks on a
:class:`~repro.resilience.procpool.ProcessPool` of ``jobs`` processes,
started for the run, under the pool's one failure rule: an attempt past
its ``REPRO_TASK_TIMEOUT`` deadline is killed, a lost process is
replaced, and its task retried with deterministic backoff up to
``REPRO_MAX_RETRIES`` times; a task that exhausts its attempts, or meets
a poisoned pool, runs in-process (the serial rung).  An exception raised
by the task body is deterministic and never retried: it is recorded and
re-raised as :class:`~repro.common.errors.PipelineError` after the
surviving tasks finish.  The run is summarized in a :class:`RunReport`;
results are keyed by task name, so callers never depend on completion
order.

This module stays import-light: the pool loads only when a run starts.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.env import env_number
from repro.common.errors import PipelineError

logger = logging.getLogger("repro.resilience.supervisor")

#: Longest wait between two ``should_stop`` polls of a streaming run.
STOP_POLL_S = 0.1


def default_task_timeout() -> float:
    """Per-attempt deadline in seconds (``REPRO_TASK_TIMEOUT``, default 600)."""
    return env_number("REPRO_TASK_TIMEOUT", 600.0, 0.1, float)


def default_max_retries() -> int:
    """Extra pool attempts per task (``REPRO_MAX_RETRIES``, default 2)."""
    return env_number("REPRO_MAX_RETRIES", 2, 0)


@dataclass
class TaskOutcome:
    """What happened to one supervised task, attempt by attempt.

    ``status`` is ``"ok"``, ``"failed"`` or ``"interrupted"`` (a drain
    stopped the run first; a resumed run picks it up).  ``attempts``
    counts pool and serial attempts; ``path`` is where the winning one
    ran: ``"pool"`` (first try), ``"pool-retry"``, ``"serial"`` or
    ``"cache"`` (served durably).  ``errors`` has one line per failed
    attempt.  ``timings`` holds per-stage wall seconds: the supervisor's
    ``task_s`` (dispatch to result) plus the task's own breakdown
    (``record_s`` / ``analyze_s`` / ``store_io_s``).
    """

    name: str
    status: str = "pending"
    attempts: int = 0
    path: str = "pool"
    errors: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def clean(self) -> bool:
        """Did the task succeed first try, on the pool, with no drama?"""
        return self.ok and self.attempts == 1 and self.path == "pool"


@dataclass
class RunReport:
    """Structured record of one supervised fan-out.

    ``outcomes`` preserves task submission order regardless of which
    attempts retried or fell back, so two identical runs produce
    identical reports.
    """

    outcomes: List[TaskOutcome] = field(default_factory=list)
    pool_poisoned: bool = False
    #: True when a graceful drain (``should_stop``) ended the run early;
    #: unfinished tasks carry status ``"interrupted"``, not ``"failed"``.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return all(out.ok for out in self.outcomes)

    @property
    def degraded(self) -> bool:
        """Did anything stray from the happy path (retry/serial/poison)?"""
        return self.pool_poisoned or any(
            not out.clean and out.path != "cache" for out in self.outcomes
        )

    def failed(self) -> List[TaskOutcome]:
        """Tasks that genuinely failed -- interrupted ones are resumable."""
        return [out for out in self.outcomes if out.status == "failed"]

    def summary(self) -> str:
        ok = sum(1 for out in self.outcomes if out.ok)
        retried = sum(
            1 for out in self.outcomes
            if out.ok and not out.clean and out.path != "cache"
        )
        line = "%d/%d task(s) ok (%d via retry/serial)" % (
            ok, len(self.outcomes), retried,
        )
        if self.pool_poisoned:
            line += "; pool poisoned, remainder ran serial"
        if self.interrupted:
            cut = sum(
                1 for out in self.outcomes if out.status == "interrupted"
            )
            line += "; drained early, %d task(s) interrupted" % cut
        return line

    def profile(self) -> Dict[str, float]:
        """Aggregate per-stage wall time over every task's ``timings``.

        Sums each stage key across the outcomes (``record_s``,
        ``analyze_s``, ``store_io_s``, ``task_s``, ...).  With a
        pipelined fan-out, ``task_s`` summed over tasks exceeding the
        run's wall clock is the direct evidence that recording and
        analysis actually overlapped.
        """
        totals: Dict[str, float] = {}
        for out in self.outcomes:
            for stage, seconds in out.timings.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def raise_if_failed(self) -> None:
        bad = self.failed()
        if not bad:
            return
        detail = "; ".join(
            "%s: %s" % (out.name, out.errors[-1] if out.errors else "?")
            for out in bad
        )
        exc = PipelineError(
            "%d supervised task(s) failed after all fallbacks: %s"
            % (len(bad), detail)
        )
        exc.report = self
        raise exc


class Supervisor:
    """Runs named tasks on a pool of ``jobs`` processes; see the module
    doc.  ``timeout`` (per attempt) and ``max_retries`` default to
    ``REPRO_TASK_TIMEOUT`` and ``REPRO_MAX_RETRIES``; ``seed`` seeds the
    backoff jitter."""

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        seed: int = 0,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout, self.max_retries, self.seed = timeout, max_retries, seed

    def run_stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Tuple[str, Any]],
        on_result: Optional[Callable[..., None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[Dict[str, Any], RunReport]:
        """Run every task; returns ``(results_by_name, report)``.

        ``on_result(outcome, value, submit)`` is called here the moment
        a task succeeds (on whatever path), and ``submit(name,
        payload)`` enqueues a follow-up task, so a pipeline -- record
        tasks fanning out into analyze tasks -- flows through one pool.
        The run ends when no task is queued or in flight.  Raises
        :class:`PipelineError` (carrying ``exc.report``) when a task
        failed on the pool or on the serial rung.

        ``should_stop`` is polled at least every :data:`STOP_POLL_S`;
        once true the run *drains*: the pool is killed at once,
        unfinished tasks are marked ``"interrupted"``, and the finished
        results are returned for the caller to commit.  An exception
        from ``on_result`` propagates after the pool is shut down.
        """
        from repro.resilience.procpool import ProcessPool

        pool = ProcessPool(
            fn, self.jobs, self.timeout, self.max_retries, self.seed
        )
        outcomes: Dict[str, TaskOutcome] = {}
        report = RunReport()
        results: Dict[str, Any] = {}
        #: (name, payload, attempt, not_before_monotonic)
        queue: List[Tuple[str, Any, int, float]] = []
        running: List[Any] = []

        def submit(name: str, payload: Any) -> None:
            if name in outcomes:
                raise ValueError("duplicate streamed task name %r" % (name,))
            outcomes[name] = TaskOutcome(name)
            report.outcomes.append(outcomes[name])
            queue.append((name, payload, 0, 0.0))

        for name, payload in tasks:
            submit(name, payload)

        def finish_ok(name: str, value: Any, path: str,
                      started: float) -> None:
            out = outcomes[name]
            out.status, out.path = "ok", path
            out.timings["task_s"] = time.monotonic() - started
            results[name] = value
            if on_result is not None:
                on_result(out, value, submit)

        def run_serial_now(name: str, payload: Any) -> None:
            out = outcomes[name]
            out.attempts += 1
            logger.warning("task %s falling back to serial execution", name)
            started = time.monotonic()
            try:
                value = fn(payload)
            except Exception as exc:  # noqa: BLE001
                out.status, out.path = "failed", "serial"
                out.errors.append("serial fallback raised %s: %s"
                                  % (type(exc).__name__, exc))
                return
            finish_ok(name, value, "serial", started)

        try:
            try:
                pool.start()
            except OSError as exc:
                pool.poisoned = True
                logger.error("worker spawn failed (%s)", exc)
            while queue or running:
                if should_stop is not None and should_stop():
                    report.interrupted = True
                    break
                if pool.poisoned and not report.pool_poisoned:
                    report.pool_poisoned = True
                    logger.error("pool poisoned; remaining tasks run "
                                 "serially")
                now = time.monotonic()
                for entry in [e for e in queue
                              if e[3] <= now or pool.poisoned]:
                    child = None if pool.poisoned else pool.acquire()
                    if child is None and not pool.poisoned:
                        break
                    queue.remove(entry)
                    name, payload, attempt, _ = entry
                    if child is None:
                        run_serial_now(name, payload)
                        continue
                    outcomes[name].attempts += 1
                    pool.dispatch(child, name, payload, attempt)
                    running.append(child)
                waits = [t - now for _n, _p, _a, t in queue if t > now]
                if should_stop is not None:
                    waits.append(STOP_POLL_S)
                if not running and not waits:
                    continue
                for child, status, value in pool.poll(
                    running, min(waits) if waits else None
                ):
                    running.remove(child)
                    name, payload, attempt = child.task
                    if status == "ok":
                        finish_ok(name, value, "pool-retry" if attempt
                                  else "pool", child.started)
                        continue
                    detail = value[1] if status == "error" else value
                    outcomes[name].errors.append(detail)
                    logger.warning("task %s attempt %d failed: %s",
                                   name, attempt + 1, detail)
                    delay = pool.retry_delay(name, attempt)
                    if status == "error":
                        outcomes[name].status = "failed"
                    elif delay is None:
                        run_serial_now(name, payload)
                    else:
                        queue.append((name, payload, attempt + 1,
                                      time.monotonic() + delay))
        finally:
            pool.shutdown()

        if report.interrupted:
            for out in outcomes.values():
                if out.status not in ("ok", "failed"):
                    out.status = "interrupted"
            logger.warning("supervised run drained: %s", report.summary())
        report.raise_if_failed()
        return results, report
