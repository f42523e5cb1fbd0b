"""Exception hierarchy for the CORD reproduction.

All library-raised exceptions derive from :class:`CordError`, so callers can
catch one base class.  Each subclass marks a distinct failure domain:
configuration, simulation, log encoding, and replay verification.
"""


class CordError(Exception):
    """Base class for every exception raised by this library."""


class ConfigError(CordError, ValueError):
    """A configuration value is invalid or inconsistent.

    Raised eagerly at construction time (for example, a cache size that is
    not a multiple of the line size, or a window parameter ``D`` below 1),
    so misconfiguration never surfaces as a confusing mid-simulation error.
    """


class SimulationError(CordError, RuntimeError):
    """The functional or timing simulator reached an invalid state."""


class DeadlockError(SimulationError):
    """Every runnable thread is blocked and no progress is possible.

    Fault injection can legitimately deadlock a run (for example a lost
    barrier-count update after an injected missing lock).  The engine raises
    this error -- or, when configured with a watchdog, records the hang and
    force-releases the blocked threads instead.
    """

    def __init__(self, blocked_threads, message=None):
        self.blocked_threads = tuple(blocked_threads)
        if message is None:
            message = "all threads blocked: %s" % (self.blocked_threads,)
        super().__init__(message)


class LogFormatError(CordError, ValueError):
    """An order-recording log is malformed or truncated."""


class PipelineError(CordError, RuntimeError):
    """The analysis *pipeline* (not the simulated hardware) failed.

    Base class of the resilience taxonomy: everything under it marks a
    fault in our own record/analyze machinery -- a dead worker, a
    corrupted cache entry, an accelerated path that had to be abandoned.
    The simulated CORD hardware never raises these; the trace store,
    the journal and the degradation ladder do (see
    ``docs/resilience.md``).  A stage task's own exception is re-raised
    as itself, whether it ran in-process or on the process pool, so its
    exit code does not depend on ``--jobs``.
    """


class WorkerTimeoutError(PipelineError):
    """A pool process missed a task's deadline.

    :meth:`~repro.resilience.procpool.ProcessPool.run` logs it as the
    detail of the lost attempt; the task is retried on a replacement
    process, and once its retries are spent it runs in-process, so the
    pool never raises this error itself.
    """

    def __init__(self, task, attempts, message=None):
        self.task = task
        self.attempts = attempts
        if message is None:
            message = "task %r missed its deadline %d time(s)" % (
                task, attempts,
            )
        super().__init__(message)


class StoreCorruptError(PipelineError):
    """An on-disk cache entry failed its integrity check.

    Covers torn, truncated, and bit-flipped files: bad frame magic,
    length mismatches, and payload checksum failures.  The store reacts
    by quarantining the file and re-recording -- this error is how the
    corruption is *named*, not a fatal condition on the read path.
    """


class InterruptedRunError(PipelineError):
    """A campaign or sweep was interrupted at a resumable point.

    Raised when a graceful-shutdown request (SIGTERM/SIGINT, or the
    chaos ``sigterm_drain`` fault) drains the pipeline mid-run: the
    tasks in flight finish, the write-ahead journal is flushed, and
    every finished unit of work is already durable, so re-running with
    ``--resume`` (or the same cache directory) completes the run
    bit-identically.
    The CLI maps this to exit code 71 -- "interrupted, resumable".
    """

    def __init__(self, run_id=None, message=None):
        self.run_id = run_id
        if message is None:
            if run_id is None:
                message = "run interrupted at a resumable point"
            else:
                message = (
                    "run %s interrupted at a resumable point; re-run "
                    "with --resume %s (or the same cache directory) to "
                    "continue" % (run_id, run_id)
                )
        super().__init__(message)


class DegradedPathError(PipelineError):
    """Every rung of the degradation ladder failed for one configuration.

    The guard re-runs a configuration on the next-slower path
    (fused -> kernel -> pure-python scalar) when an accelerated pass
    raises; this error means even the scalar reference path failed, so
    there is no correct result to return.
    """


class ReplayDivergenceError(CordError, RuntimeError):
    """Deterministic replay observed an execution that differs from the log.

    This indicates either a corrupted log or a genuine order-recording bug;
    the paper's correctness claim is exactly that this never happens.
    """

    def __init__(self, thread_id, detail):
        self.thread_id = thread_id
        self.detail = detail
        super().__init__(
            "replay diverged in thread %d: %s" % (thread_id, detail)
        )
