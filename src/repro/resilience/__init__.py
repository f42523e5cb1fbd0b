"""Pipeline resilience: supervision, self-healing storage, degradation.

The paper's promise is reliability of the record/detect pipeline itself
-- no false positives, always a replayable log.  This package gives our
*analysis* pipeline the same discipline: long campaigns survive dead or
hung workers (:mod:`~repro.resilience.supervisor` over the pre-forked
:mod:`~repro.resilience.procpool`), corrupted on-disk
trace entries are detected, quarantined, and re-recorded
(:mod:`repro.trace.store`), and any failure in an accelerated analysis
path degrades to the next-slower byte-identical tier instead of taking
the sweep down (:mod:`~repro.resilience.guard`).  Death of the *driver*
process itself -- ``kill -9``, power loss, SIGTERM -- is survived too:
every durable artifact goes through one atomic-write helper and every
campaign's progress through a write-ahead journal, so an interrupted
sweep resumes to bit-identical results
(:mod:`~repro.resilience.checkpoint`, :mod:`~repro.resilience.journal`).
The fault points that prove all of it live in
:mod:`~repro.resilience.faults`.

See ``docs/resilience.md`` for the operator-facing overview and the
``REPRO_TASK_TIMEOUT`` / ``REPRO_MAX_RETRIES`` / ``REPRO_CROSS_CHECK``
/ ``REPRO_FAULTS`` / ``REPRO_FSYNC`` environment knobs.
"""

from repro.resilience.checkpoint import (
    GracefulShutdown,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    check_shutdown,
    collect_tmp_litter,
    prune_quarantine,
    request_shutdown,
)

from repro.resilience.guard import (
    GUARD_LOG,
    DegradationEvent,
    GuardLog,
    compute_outcomes,
    cross_check_enabled,
    guarded_outcomes,
    verify_ladder_equivalence,
)
from repro.resilience.supervisor import (
    RunReport,
    Supervisor,
    TaskOutcome,
    default_max_retries,
    default_task_timeout,
)

__all__ = [
    "GUARD_LOG",
    "DegradationEvent",
    "GracefulShutdown",
    "GuardLog",
    "RunReport",
    "Supervisor",
    "TaskOutcome",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "check_shutdown",
    "collect_tmp_litter",
    "compute_outcomes",
    "cross_check_enabled",
    "default_max_retries",
    "default_task_timeout",
    "guarded_outcomes",
    "prune_quarantine",
    "request_shutdown",
    "verify_ladder_equivalence",
]

# The journal layer (RunCheckpoint, TaskCheckpoint, replay) is imported
# as :mod:`repro.resilience.journal` directly: it builds on the trace
# store, and importing it here would couple this package's import time
# to the store's.
