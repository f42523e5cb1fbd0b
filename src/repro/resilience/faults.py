"""Chaos-harness fault points.

The resilience stack (process pool, trace store, degradation ladder) is
only trustworthy if its failure paths actually run, so the pipeline
carries a handful of *fault points* -- named sites where a test (or an
operator hunting a heisenbug) can inject the failure the path exists to
survive.  With no faults armed every hook is a single cheap boolean
check, so production runs pay nothing.

Faults are armed through the ``REPRO_FAULTS`` environment variable (or
programmatically via :func:`arm`), as a comma-separated list of
``name[:charges[:value]]`` entries::

    REPRO_FAULTS="fused_raise:2,store_truncate,lease_stall:3:5"

Each armed fault carries a *charge budget* (default 1).  The optional
third field parameterizes the faults that take a value: the seconds a
``worker_stall`` or ``lease_stall`` sleeps (default 30) and the
requests a ``net_partition`` fails (default 8).  In-process
faults (:func:`fire`) consume one charge per firing and go quiet when
the budget is spent -- so a retry or a re-record after the injected
failure succeeds, which is exactly the recovery the chaos tests assert.
The budget is per process: in a long-lived pool process
(:mod:`repro.resilience.procpool`) it is spent once per process, not
once per task.  Worker-level faults (:func:`should_fire`) are evaluated
in pool processes, which die and are replaced by these very faults;
they are gated on the *attempt number* sent with each task instead
(``attempt < charges``), which is deterministic across processes: a
``worker_kill:1`` kills every task's first attempt and no retry.

Fault points wired into the pipeline:

=================  =========================================================
``worker_kill``    a pool process exits hard (``os._exit``) before its task
``worker_stall``   a pool process sleeps the spec's value in seconds
                   (default 30) before its task, tripping the deadline
``store_truncate`` :class:`~repro.trace.store.PackedTraceStore` writes only
                   half of an entry's frame (a torn write)
``fused_raise``    the interval-fused sweep pass raises at entry
``kernel_raise``   ``CordDetector._process_packed_kernel`` raises at entry
``driver_kill``    the *driver* process exits hard (``os._exit``) right
                   after flushing a journal transition (a ``kill -9``)
``power_cut``      the driver exits hard with the journal tail still in
                   the write buffer (a power loss: the record is torn off)
``sigterm_drain``  a graceful-shutdown request is injected at a journal
                   transition, as if SIGTERM had just arrived
``svc_kill``       the campaign *server* exits hard (``os._exit``) right
                   after flushing a job-state WAL transition
``queue_full``     the service admission controller rejects the next
                   submission as if the server's ``queue_max`` were hit
``tenant_flood``   the service admission controller rejects the next
                   submission as if the tenant's quota were exhausted
``store_corrupt_mid_job``
                   a service job's durable trace entry is truncated in
                   place between its record and analyze phases (the
                   self-healing store must quarantine and re-record)
``worker_vanish``  a remote ``cord-worker`` process exits hard
                   (``os._exit``) at a lease-lifecycle transition, as if
                   the host died mid-shard
``lease_stall``    a remote worker freezes for the spec's value in seconds
                   (default 30) at a lease-lifecycle transition,
                   overrunning its lease deadline so the server
                   reassigns the shard (and the late completion must be
                   deduped)
``net_partition``  the remote worker's link to the server drops: its
                   next requests, as many as the spec's value (default
                   8), fail as connection errors, then the partition
                   heals
``replica_corrupt``
                   one store-replication payload is corrupted in flight;
                   the sha256 check on receipt must quarantine it and
                   the transfer must be retried
=================  =========================================================

The driver- and server-level kill faults use *tick* semantics
(:func:`tick`) rather than charge budgets: ``driver_kill:5`` fires at
exactly the fifth journal transition of the process (``svc_kill:5`` at
the fifth job-WAL transition), which is what lets the resume test
matrices kill the process at *every* transition point in turn.  The
remote-worker faults (``worker_vanish``, ``lease_stall``,
``net_partition``) are tick-gated on the worker's lease-lifecycle
transitions and ``replica_corrupt`` on successive replication
transfers, for the same reason: the multi-host matrix places one fault
at every transition in turn (``lease_stall:3:5`` stalls for 5 s at the
third transition).  The service admission faults
(``queue_full``, ``tenant_flood``, ``store_corrupt_mid_job``) are
ordinary charge-budget faults.

This module must stay import-light (stdlib only): it is imported by the
trace store and the CORD hot paths, and must never create an import
cycle with them.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional, Tuple

_ENV = "REPRO_FAULTS"

#: Exit status a ``worker_kill`` child dies with (distinguishable from a
#: crash in the campaign itself, which reports through the result pipe).
KILL_EXIT_CODE = 86

#: Exit status of a ``driver_kill`` fault (the driver's ``kill -9``).
DRIVER_KILL_EXIT_CODE = 87

#: Exit status of a ``power_cut`` fault (exit with unflushed journal).
POWER_CUT_EXIT_CODE = 88

#: Exit status of an ``svc_kill`` fault (the campaign server's ``kill -9``,
#: fired right after a job-state WAL transition became durable).
SVC_KILL_EXIT_CODE = 89

#: Exit status of a ``worker_vanish`` fault (a remote ``cord-worker``
#: dying hard at a lease-lifecycle transition).
WORKER_VANISH_EXIT_CODE = 90

#: Per-process armed faults: name -> remaining charges.  ``None`` means
#: the environment has not been parsed yet (lazily, so tests can set the
#: variable after import).
_armed: Optional[Dict[str, int]] = None

#: Per-process fault values: name -> the third field of its spec entry.
_values: Dict[str, float] = {}

#: Per-process tick counters for :func:`tick`-gated faults.
_ticks: Dict[str, int] = {}


def _parse(spec: str) -> Tuple[Dict[str, int], Dict[str, float]]:
    """``(charges, values)`` of a ``name[:charges[:value]]`` list; a
    malformed count means 1 and a malformed value the fault's default."""
    plan: Dict[str, int] = {}
    values: Dict[str, float] = {}
    for item in spec.split(","):
        name, _, rest = item.strip().partition(":")
        charges, _, value = rest.partition(":")
        name = name.strip()
        if not name:
            continue
        try:
            count = int(charges) if charges.strip() else 1
        except ValueError:
            count = 1
        if count > 0:
            plan[name] = count
            try:
                number = float(value)
            except ValueError:
                continue
            if math.isfinite(number):
                values[name] = number
    return plan, values


def _plan() -> Dict[str, int]:
    global _armed, _values
    if _armed is None:
        _armed, _values = _parse(os.environ.get(_ENV, ""))
    return _armed


def arm(spec: Optional[str] = None) -> None:
    """(Re)arm faults from ``spec``, or re-read ``REPRO_FAULTS``.

    Tests call this after ``monkeypatch.setenv`` so the per-process
    charge budgets reset; ``arm("")`` disarms everything.
    """
    global _armed, _values
    _armed, _values = _parse(
        os.environ.get(_ENV, "") if spec is None else spec
    )
    _ticks.clear()


def reset() -> None:
    """Forget all parsed state; the next check re-reads the environment."""
    global _armed
    _armed = None
    _ticks.clear()


def active() -> bool:
    """Is any fault armed at all?  (The hot paths' one-boolean gate.)"""
    return bool(_plan())


def fire(name: str) -> bool:
    """Consume one charge of ``name`` if armed; True when the fault fires.

    In-process fault points call this exactly where the failure should
    originate, e.g. ``if faults.fire("fused_raise"): raise ...``.
    """
    plan = _plan()
    if not plan:
        return False
    left = plan.get(name, 0)
    if left <= 0:
        return False
    plan[name] = left - 1
    return True


def tick(name: str) -> bool:
    """Advance ``name``'s tick counter; True exactly at the armed tick.

    Tick-gated fault points (the driver-level faults) call this once per
    transition: ``driver_kill:5`` fires at exactly the fifth call and
    never again.  Unlike :func:`fire` the armed value is a *position*,
    not a budget, which lets a test matrix place one fault at each
    successive transition of a run.
    """
    plan = _plan()
    if not plan or name not in plan:
        return False
    _ticks[name] = _ticks.get(name, 0) + 1
    return _ticks[name] == plan[name]


def should_fire(name: str, attempt: int) -> bool:
    """Non-consuming, attempt-gated check for cross-process fault points.

    Fires while ``attempt < charges``: deterministic no matter how many
    fresh worker processes evaluate it, so a retried task heals once its
    attempt number climbs past the budget.
    """
    plan = _plan()
    if not plan:
        return False
    return attempt < plan.get(name, 0)


def stall_seconds(name: str) -> float:
    """How long a ``worker_stall``/``lease_stall`` fault sleeps (its
    spec's value, default 30)."""
    _plan()
    return max(0.0, _values.get(name, 30.0))


def partition_requests() -> int:
    """How many requests a ``net_partition`` window fails (its spec's
    value, default 8)."""
    _plan()
    return max(1, int(_values.get("net_partition", 8)))


def worker_entry(attempt: int) -> None:
    """A pool process's fault hook, called before each task body.

    ``worker_kill`` exits the process without a word (the parent sees a
    dead worker with no result -- the crash it must survive);
    ``worker_stall`` sleeps long enough to trip the task deadline.
    """
    if not active():
        return
    if should_fire("worker_kill", attempt):
        os._exit(KILL_EXIT_CODE)
    if should_fire("worker_stall", attempt):
        import time

        time.sleep(stall_seconds("worker_stall"))
