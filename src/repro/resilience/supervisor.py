"""Supervised process fan-out for campaign tasks.

``multiprocessing.Pool`` is the wrong tool for long campaign sweeps: a
worker that dies mid-task hangs or poisons ``pool.map``, a hung worker
stalls the whole sweep forever, and either way hours of finished work
go down with it.  This supervisor replaces the pool with per-task child
processes it actually *watches*:

* every attempt gets a **deadline** (``REPRO_TASK_TIMEOUT`` seconds);
  a child that misses it is killed and the task retried;
* a child that **dies** without reporting (crash, OOM-kill, chaos
  ``worker_kill``) is detected and the task retried;
* retries use **exponential backoff with deterministic jitter** (seeded
  through :mod:`repro.common.rng`, so two identical runs back off
  identically) up to ``REPRO_MAX_RETRIES`` extra attempts;
* a task that exhausts its pool attempts -- or a **poisoned pool**
  (process spawn failing, or workers dying over and over) -- falls back
  to plain **in-process serial execution**, the degraded-but-correct
  bottom rung;
* the whole run is summarized in a structured :class:`RunReport` of
  per-task :class:`TaskOutcome` rows.

Exceptions *raised by the task body* are deliberately not retried: the
tasks here are deterministic computations, so a raising task would raise
again on every attempt.  Such failures are recorded and re-raised as
:class:`~repro.common.errors.PipelineError` after the surviving tasks
finish.  Results are returned keyed by task name; callers that need
deterministic ordering iterate their own task list, never completion
order.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PipelineError, WorkerTimeoutError
from repro.common.rng import DeterministicRng
from repro.resilience import faults

logger = logging.getLogger("repro.resilience.supervisor")

#: Backoff shape: ``base * 2**attempt`` seconds, capped, plus up to 50%
#: deterministic jitter.  Small on purpose -- campaign tasks are seconds
#: to minutes long, so the backoff only needs to decorrelate respawns.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


def default_task_timeout() -> float:
    """Per-attempt deadline in seconds (``REPRO_TASK_TIMEOUT``, default 600)."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if raw:
        try:
            return max(0.1, float(raw))
        except ValueError:
            pass
    return 600.0


def default_max_retries() -> int:
    """Extra pool attempts per task (``REPRO_MAX_RETRIES``, default 2)."""
    raw = os.environ.get("REPRO_MAX_RETRIES", "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return 2


@dataclass
class TaskOutcome:
    """What happened to one supervised task, attempt by attempt.

    Attributes:
        name: the task's key (campaign workload name).
        status: ``"ok"``, ``"failed"``, or ``"interrupted"`` (a graceful
            drain stopped the run before this task could finish; it is
            not a failure -- a resumed run picks it up).
        attempts: total attempts, pool and serial together.
        path: where the winning attempt ran -- ``"pool"`` (first try),
            ``"pool-retry"``, ``"serial"`` (the fallback rung), or
            ``"cache"`` (served durably, no worker occupied).
        errors: one human-readable line per failed attempt.
        timings: per-stage wall times in seconds.  The supervisor stamps
            ``task_s`` (winning attempt's spawn-to-result wall); the
            task layer merges in its own stage breakdown (the run-level
            scheduler adds ``record_s`` / ``analyze_s`` /
            ``store_io_s``).  See :meth:`RunReport.profile`.
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


def _child_main(fn, payload, attempt, conn) -> None:
    """Child-process entry: run the task body, ship the result back.

    Must stay module-level (picklable for spawn-based contexts).  The
    fault hook runs *before* the body so an injected kill/stall models a
    worker lost mid-task, not a broken computation.
    """
    # A forked child inherits the parent's GracefulShutdown handler,
    # which would turn the supervisor's terminate() into a logged drain
    # request and leave the parent waiting out its join before kill().
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        faults.worker_entry(attempt)
        result = fn(payload)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - full report, then die
        try:
            conn.send((
                "error",
                "%s: %s" % (type(exc).__name__, exc),
                traceback.format_exc(),
            ))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class _Attempt:
    """One in-flight child process."""

    name: str
    payload: Any
    attempt: int
    proc: multiprocessing.process.BaseProcess
    conn: Any
    deadline: float
    started: float = 0.0


class Supervisor:
    """Runs named tasks on watched child processes; see the module doc.

    Args:
        jobs: maximum concurrent worker processes.
        timeout: per-attempt deadline in seconds (``None`` reads
            ``REPRO_TASK_TIMEOUT``).
        max_retries: extra pool attempts per task before the serial
            fallback (``None`` reads ``REPRO_MAX_RETRIES``).
        seed: seed for the deterministic backoff jitter.
        context: a :mod:`multiprocessing` context (``None``: fork where
            available, else the platform default).
    """

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        seed: int = 0,
        context=None,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout = default_task_timeout() if timeout is None else timeout
        self.max_retries = (
            default_max_retries() if max_retries is None else max_retries
        )
        if context is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # platforms without fork
                context = multiprocessing.get_context()
        self._context = context
        self._rng = DeterministicRng(seed, "supervisor")
        #: Worker deaths/timeouts before the pool is declared poisoned.
        self.poison_limit = max(4, 2 * self.jobs * (self.max_retries + 1))

    # -- internals -----------------------------------------------------------

    def _backoff(self, name: str, attempt: int) -> float:
        base = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** attempt))
        jitter = self._rng.fork("%s/%d" % (name, attempt)).random()
        return base * (1.0 + 0.5 * jitter)

    def _spawn(self, name, payload, attempt) -> Optional[_Attempt]:
        recv_end, send_end = self._context.Pipe(duplex=False)
        proc = self._context.Process(
            target=_child_main,
            args=(self._fn, payload, attempt, send_end),
            name="repro-task-%s-%d" % (name, attempt),
        )
        proc.daemon = True
        proc.start()
        send_end.close()
        started = time.monotonic()
        return _Attempt(
            name=name,
            payload=payload,
            attempt=attempt,
            proc=proc,
            conn=recv_end,
            deadline=started + self.timeout,
            started=started,
        )

    @staticmethod
    def _reap(att: _Attempt) -> None:
        try:
            att.conn.close()
        except Exception:
            pass
        if att.proc.is_alive():
            att.proc.terminate()
            att.proc.join(1.0)
            if att.proc.is_alive():
                att.proc.kill()
                att.proc.join(1.0)
        else:
            att.proc.join()

    # -- the run loop --------------------------------------------------------

    def run_stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Tuple[str, Any]],
        on_result: Optional[Callable[..., None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[Dict[str, Any], RunReport]:
        """Run every task; returns ``(results_by_name, report)``.

        The task graph may *grow* while it runs: ``on_result(outcome,
        value, submit)`` is called in the parent the moment a task
        succeeds (whatever path computed it), and ``submit(name,
        payload)`` enqueues a follow-up task into the same work queue,
        so a pipeline -- record tasks fanning out into analyze tasks as
        recordings land -- flows through one pool with one load
        balancer.  The loop ends when the queue and the in-flight set
        are both empty, follow-ups included.

        A task that exhausts its pool retries -- or hits a poisoned
        pool -- runs **inline immediately** in this process, so its
        follow-ups still stream through the queue while other workers
        keep computing.  Raises :class:`PipelineError` (carrying the
        report as ``exc.report``) only when a task failed on the pool
        *and* in that serial fallback.

        ``should_stop`` is polled every loop iteration (the graceful
        shutdown hook): when it turns true the run *drains* -- no new
        attempts spawn, every in-flight worker is reaped immediately,
        unfinished tasks are marked ``"interrupted"`` (not failed),
        ``report.interrupted`` is set, and the finished results are
        returned so the caller can commit them before exiting
        resumably.  Exceptions raised by ``on_result`` itself propagate
        after the in-flight children are reaped -- a coordinator bug
        must surface, not hang the fan-out.
        """
        self._fn = fn
        outcomes: Dict[str, TaskOutcome] = {}
        report = RunReport()
        results: Dict[str, Any] = {}
        #: (name, payload, attempt, not_before_monotonic)
        queue: List[Tuple[str, Any, int, float]] = []
        running: List[_Attempt] = []
        pool_ok = True
        deaths = 0

        def submit(name: str, payload: Any) -> None:
            if name in outcomes:
                raise ValueError(
                    "duplicate streamed task name %r" % (name,)
                )
            outcomes[name] = TaskOutcome(name)
            report.outcomes.append(outcomes[name])
            queue.append((name, payload, 0, 0.0))

        for name, payload in tasks:
            submit(name, payload)

        def finish_ok(name: str, value: Any) -> None:
            results[name] = value
            if on_result is not None:
                on_result(outcomes[name], value, submit)

        def run_serial_now(name: str, payload: Any) -> None:
            out = outcomes[name]
            out.attempts += 1
            out.path = "serial"
            logger.warning(
                "task %s falling back to serial execution", name
            )
            started = time.monotonic()
            try:
                value = self._fn(payload)
            except Exception as exc:  # noqa: BLE001
                out.status = "failed"
                out.errors.append(
                    "serial fallback raised %s: %s"
                    % (type(exc).__name__, exc)
                )
                return
            out.status = "ok"
            out.timings["task_s"] = time.monotonic() - started
            finish_ok(name, value)

        def fail_attempt(att: _Attempt, detail: str, infra: bool) -> None:
            nonlocal pool_ok, deaths
            out = outcomes[att.name]
            out.errors.append(detail)
            logger.warning(
                "task %s attempt %d failed: %s",
                att.name, att.attempt + 1, detail,
            )
            if not infra:
                out.status = "failed"
                return
            deaths += 1
            if deaths >= self.poison_limit:
                pool_ok = False
                report.pool_poisoned = True
                logger.error(
                    "pool poisoned after %d worker failures; "
                    "remaining tasks run serially", deaths,
                )
            if pool_ok and att.attempt < self.max_retries:
                delay = self._backoff(att.name, att.attempt)
                queue.append((
                    att.name, att.payload, att.attempt + 1,
                    time.monotonic() + delay,
                ))
            else:
                run_serial_now(att.name, att.payload)

        try:
            while queue or running:
                if should_stop is not None and should_stop():
                    report.interrupted = True
                    break
                now = time.monotonic()
                if pool_ok:
                    ready = [
                        entry for entry in queue if entry[3] <= now
                    ]
                    for entry in ready:
                        if len(running) >= self.jobs:
                            break
                        queue.remove(entry)
                        name, payload, attempt, _ = entry
                        outcomes[name].attempts += 1
                        try:
                            running.append(
                                self._spawn(name, payload, attempt)
                            )
                        except OSError as exc:
                            pool_ok = False
                            report.pool_poisoned = True
                            logger.error(
                                "worker spawn failed (%s); falling back "
                                "to serial execution", exc,
                            )
                            outcomes[name].attempts -= 1
                            run_serial_now(name, payload)
                            break
                else:
                    drained = list(queue)
                    queue.clear()
                    for name, payload, _attempt, _t in drained:
                        run_serial_now(name, payload)
                progressed = False
                for att in list(running):
                    msg = None
                    dead = False
                    if att.conn.poll():
                        try:
                            msg = att.conn.recv()
                        except (EOFError, OSError):
                            dead = True
                    elif not att.proc.is_alive():
                        # Drain the race where the child wrote and died
                        # between our poll and the liveness check.
                        att.proc.join()
                        if att.conn.poll():
                            try:
                                msg = att.conn.recv()
                            except (EOFError, OSError):
                                dead = True
                        else:
                            dead = True
                    elif now > att.deadline:
                        self._reap(att)
                        running.remove(att)
                        progressed = True
                        fail_attempt(
                            att,
                            repr(WorkerTimeoutError(
                                att.name, att.attempt + 1,
                                "deadline of %.1fs exceeded"
                                % self.timeout,
                            )),
                            infra=True,
                        )
                        continue
                    if msg is None and not dead:
                        continue
                    self._reap(att)
                    running.remove(att)
                    progressed = True
                    if msg is None:
                        code = att.proc.exitcode
                        fail_attempt(
                            att,
                            "worker died without a result "
                            "(exit code %r)" % (code,),
                            infra=True,
                        )
                    elif msg[0] == "ok":
                        out = outcomes[att.name]
                        out.status = "ok"
                        out.path = (
                            "pool" if att.attempt == 0 else "pool-retry"
                        )
                        out.timings["task_s"] = now - att.started
                        finish_ok(att.name, msg[1])
                    else:
                        fail_attempt(
                            att,
                            "%s\n%s" % (msg[1], msg[2]),
                            infra=False,
                        )
                if not progressed and (running or queue):
                    time.sleep(0.02)
        finally:
            for att in running:
                self._reap(att)

        if report.interrupted:
            for out in outcomes.values():
                if out.status not in ("ok", "failed"):
                    out.status = "interrupted"
            logger.warning("supervised run drained: %s", report.summary())
        report.raise_if_failed()
        return results, report

