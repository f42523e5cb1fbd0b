"""The one parser of numeric ``REPRO_*`` environment knobs, and the table
of every knob the program reads.

The paper's machine (``D``, processors, timestamps per line, clock
width) is set through :class:`~repro.cord.CordConfig`; a knob is harness
only.  One stays only while it does something no flag, constructor
argument or ``REPRO_FAULTS`` entry does.  Every ``REPRO_*`` name in the
source has one entry here, and ``tests/unit/test_env_knobs.py`` fails
when a name and the table disagree.  Each entry says who sets it, what
it buys, and which CI step or test needs it.

``REPRO_JOBS``
    *Set by* users, and CI's "Parallel campaign smoke" and "Uncached
    pipeline smoke".  *Buys* the Suite's process count (default 1) when
    ``--jobs`` is absent; ``cord-repro --help`` names it.  *Needed by*
    ``test_suite_runner.py`` and ``test_cli.py``.
``REPRO_CACHE_DIR``
    *Set by* users, and CI's "Parallel campaign smoke".  *Buys* the
    Suite's cache directory when ``--cache`` is absent; ``cord-repro
    --help`` names it.  *Needed by* ``test_suite_runner.py``,
    ``test_cli.py``, ``test_record_once.py`` and
    ``test_pipeline_scheduler.py``.
``REPRO_TASK_TIMEOUT``
    *Set by* users and tests.  *Buys* the process pool's per-task
    deadline (default 600 s); it is the only way to set it for
    ``figures --jobs N``, ``cord-serve`` and ``cord-worker``.  *Needed
    by* ``test_procpool.py``, ``test_resilience.py`` and
    ``test_chaos_pipeline.py``.
``REPRO_MAX_RETRIES``
    *Set by* users and tests.  *Buys* the pool's retries of a task whose
    process died (default 2), for the same three commands.  *Needed by*
    ``test_procpool.py``, ``test_resilience.py``,
    ``test_chaos_pipeline.py``, ``test_suite_runner.py`` and
    ``test_pipeline_scheduler.py``.
``REPRO_FSYNC``
    *Set by* CI's kill/resume, service and multi-host smokes, and most
    store-writing tests (``0``).  *Buys* skipping the fsync before each
    atomic rename (default on), where durability against power loss
    is not under test.
``REPRO_CROSS_CHECK``
    *Set by* CI's "Paranoid cross-check sweep" and "Parallel campaign
    smoke" (``1``).  *Buys* a re-run of every analyzed trace on the
    kernel and scalar tiers, asserting byte-identical reports.
    *Needed by* ``test_chaos_pipeline.py``.
``REPRO_FAULTS``
    *Set by* CI's kill/resume step and every chaos, recovery and fault
    matrix test.  *Buys* armed fault points, ``name[:charges[:value]]``
    (:mod:`repro.resilience.faults`), which pool, server and worker
    subprocesses inherit.
``REPRO_NO_NUMPY``
    *Set by* CI's no-numpy leg (``1``).  *Buys* the pure-python kernels
    with numpy installed.  *Needed by* the kernel-equivalence suites
    ``test_prop_kernels.py``, ``test_prop_zero_copy.py`` and
    ``test_packed_trace.py``.
``REPRO_SVC_HEARTBEAT_S``
    *Set by* CI's multi-host job and the worker fault matrix
    (``tests/integration/test_service_workers.py``).  *Buys* a shorter
    worker heartbeat (default 2 s), so tests wait less real time.
    It goes once the service tests run on a virtual clock.
``REPRO_SVC_LEASE_S``
    *Set by* the same two.  *Buys* a shorter lease deadline (default
    120 s), so a stalled worker's lease expires within a test.  It goes
    with the heartbeat knob.
"""

from __future__ import annotations

import os


def env_number(name: str, default, floor, cast=int):
    """``max(floor, cast(value))`` of variable ``name``; ``default`` when
    it is unset, blank or malformed (a bad knob never crashes a run)."""
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(floor, cast(raw))
        except ValueError:
            pass
    return default
