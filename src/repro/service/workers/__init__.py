"""Multi-host worker pools for the campaign service.

The record-once / analyze-many split means a campaign's stage tasks
(sizing, record, analyze -- :mod:`repro.experiments.pipeline`) are pure
functions of their payload plus a content-addressed store, so they can
execute *anywhere*: this package adds the distributed tier that lets a
fleet of ``cord-worker`` processes, with no shared filesystem, lease
those tasks from one ``cord-serve`` instance over the existing
JSON-lines protocol and replicate the trace entries they need.

Layout:

``pool``
    The server-side :class:`~repro.service.workers.pool.WorkerPool`:
    worker registry with heartbeat-based liveness, lease bookkeeping
    with per-lease deadlines and epoch-tracked reassignment, duplicate
    completion dedup, and the local-execution fallback that makes a
    zero-worker server behave exactly like single-host ``cord-serve``.

``remote``
    The ``cord-worker`` agent process: registration with capped
    exponential backoff + deterministic jitter, a heartbeat thread,
    one lease/execute/replicate/complete loop per forked stage
    process, SIGTERM drain (finish every lease -> deregister -> exit
    0), and the worker-side chaos fault points (``worker_vanish``,
    ``lease_stall``, ``net_partition``).

``replicate``
    The store-replication codec: sha256-framed payloads (reusing the
    ``CORDSTOR1`` framing from :mod:`repro.trace.store`), pull/push
    helpers, and quarantine-on-mismatch handling (``replica_corrupt``).
"""

from repro.service.workers.pool import (  # noqa: F401
    PoolLimits,
    RemoteTaskError,
    UnknownLease,
    UnknownWorker,
    WorkerPool,
)
