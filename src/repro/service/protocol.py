"""The campaign service's wire protocol (JSON lines over a socket).

One request per line, one response per line -- except a streaming
``result`` request, which emits a ``{"event": "run", ...}`` line per
completed run followed by a final ``{"event": "result", "final": true}``
line.  Messages are canonical JSON (sorted keys, no whitespace), UTF-8,
newline-terminated, so the protocol is trivially scriptable with ``nc``
and ``jq`` and every response is byte-deterministic for a given state.

Requests carry an ``op`` plus op-specific fields; an optional ``id`` is
echoed back verbatim on every response line so clients may multiplex.
Error responses are ``{"ok": false, "error": <code>, ...}``; rejections
that the client should retry (backpressure, quotas, draining) carry a
deterministic ``retry_after`` seconds hint.

Ops:

``submit``   tenant?, workload, runs?, seed?, scale?,
             switch_probability?, deadline_s?  ->  job id + state
``status``   job                               ->  state snapshot
``result``   job, stream?, timeout_s?          ->  report (+ run events)
``cancel``   job                               ->  resulting state
``health``   --                                ->  queue/tenant/job stats
``drain``    --                                ->  pending jobs; server
                                                   begins graceful drain

Worker-pool ops (spoken by ``cord-worker`` processes; same JSON-lines
framing, one connection per request so liveness is carried by
heartbeats, not sockets):

``worker_register``    name?, pid?, host?       ->  worker id + knobs,
                                                    ``concurrency`` (the
                                                    server's job slots)
``worker_heartbeat``   worker                   ->  server state
``worker_lease``       worker, timeout_s?       ->  a stage task lease,
                                                    or ``idle: true``
                                                    (held open while idle,
                                                    see below)
``worker_complete``    worker, lease, epoch,
                       value (framed blob)      ->  accepted/duplicate
``worker_fail``        worker, lease, epoch,
                       detail                   ->  task requeued
``worker_deregister``  worker                   ->  released lease count
``repl_pull``          kind, namespace,
                       components               ->  sha256-framed entry
``repl_push``          kind, namespace,
                       components, data, sha256 ->  stored/duplicate

An idle ``worker_lease`` is *held*: the server answers it as soon as a
task becomes leasable, or with ``idle: true`` once the hold runs out --
``min(timeout_s, heartbeat_s / 2)``, no hold without ``timeout_s`` -- or
with ``idle: true, draining: true`` when the server drains.  Workers
therefore re-request at once instead of sleeping between requests.

See ``docs/service.md`` for the full tables.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.workloads.registry import workload_names

#: Protocol schema version, reported by ``health``.  Version 2 added the
#: worker-pool and store-replication ops (all version-1 ops unchanged).
#: Version 3 holds idle ``worker_lease`` requests open (bounded by the
#: request's ``timeout_s``) and drops the ``poll_s`` hint from the
#: ``worker_register`` reply: a version-3 worker re-requests without
#: sleeping, which against a version-2 server would spin.
PROTOCOL_VERSION = 3

#: Every operation the server understands.
OPS = (
    "submit", "status", "result", "cancel", "health", "drain",
    "worker_register", "worker_heartbeat", "worker_lease",
    "worker_complete", "worker_fail", "worker_deregister",
    "repl_pull", "repl_push",
)

# -- error codes --------------------------------------------------------------

#: Malformed request (bad JSON, missing/invalid fields).
ERR_BAD_REQUEST = "bad_request"
#: ``op`` is not one of :data:`OPS`.
ERR_UNKNOWN_OP = "unknown_op"
#: Submission rejected: the bounded job queue is full (retryable).
ERR_QUEUE_FULL = "queue_full"
#: Submission rejected: the tenant's concurrency quota is spent (retryable).
ERR_TENANT_OVER_QUOTA = "tenant_over_quota"
#: Submission rejected: the server is draining and admits nothing (retryable
#: against the restarted server).
ERR_DRAINING = "draining"
#: ``job`` names no job this server knows.
ERR_UNKNOWN_JOB = "unknown_job"
#: The job failed; ``detail`` carries the error taxonomy code/message.
ERR_JOB_FAILED = "job_failed"
#: The job was cancelled (explicitly or by its deadline).
ERR_CANCELLED = "cancelled"
#: The job's per-job deadline expired before it finished.
ERR_DEADLINE = "deadline_exceeded"
#: A ``result`` request's ``timeout_s`` expired with the job still in
#: flight (retryable; the job keeps running).
ERR_PENDING = "pending"
#: ``worker`` names no registered (live) worker -- the worker was
#: declared dead or the server restarted; the worker must re-register.
ERR_UNKNOWN_WORKER = "unknown_worker"
#: ``lease`` names no outstanding lease (already completed, reassigned
#: and completed elsewhere, or expired past its run).
ERR_UNKNOWN_LEASE = "unknown_lease"
#: A replicated payload failed its sha256 check on receipt; the sender
#: should re-encode and retry (the receiver quarantined the bytes).
ERR_REPLICA_CORRUPT = "replica_corrupt"
#: A ``repl_pull`` named an entry the server store does not hold.
ERR_NOT_FOUND = "not_found"

#: Errors whose response carries a ``retry_after`` hint.
RETRYABLE = (ERR_QUEUE_FULL, ERR_TENANT_OVER_QUOTA, ERR_DRAINING,
             ERR_PENDING)


class ProtocolError(ValueError):
    """A malformed or invalid request (mapped to ``bad_request``)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One canonical-JSON protocol line (newline-terminated)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; :class:`ProtocolError` on anything odd."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("undecodable message: %s" % exc)
    if not isinstance(message, dict):
        raise ProtocolError(
            "message must be a JSON object, got %s" % type(message).__name__
        )
    return message


def ok_response(op: str, request_id=None, **fields) -> Dict[str, Any]:
    response = {"ok": True, "op": op}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response


def error_response(
    code: str,
    detail: str = "",
    request_id=None,
    retry_after: Optional[float] = None,
    **fields,
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": False, "error": code}
    if detail:
        response["detail"] = detail
    if request_id is not None:
        response["id"] = request_id
    if retry_after is not None:
        response["retry_after"] = retry_after
    response.update(fields)
    return response


def _field(message: Dict, name: str, kind, default, required: bool):
    value = message.get(name, None)
    if value is None:
        if required:
            raise ProtocolError("missing required field %r" % name)
        return default
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProtocolError(
            "field %r must be %s, got %r" % (name, kind.__name__, value)
        )
    return value


def validate_submit(message: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a ``submit`` request's fields; raise on invalid ones.

    Returns plain spec fields (the server builds its
    :class:`~repro.service.jobs.CampaignSpec` from them), with the same
    defaults as ``cord-repro inject``: 10 runs, base seed 2006 (the
    campaign default), scale 1.0 -- so an argument-free submission and
    the bare CLI invocation name the identical campaign.
    """
    workload = _field(message, "workload", str, None, required=True)
    if workload not in workload_names():
        raise ProtocolError(
            "unknown workload %r (choices: %s)"
            % (workload, ", ".join(workload_names()))
        )
    runs = _field(message, "runs", int, 10, required=False)
    if runs < 1:
        raise ProtocolError("runs must be >= 1, got %d" % runs)
    seed = _field(message, "seed", int, 2006, required=False)
    scale = _field(message, "scale", float, 1.0, required=False)
    if scale <= 0:
        raise ProtocolError("scale must be > 0, got %r" % scale)
    switch_probability = _field(
        message, "switch_probability", float, 0.1, required=False
    )
    if not 0.0 <= switch_probability <= 1.0:
        raise ProtocolError(
            "switch_probability must be in [0, 1], got %r"
            % switch_probability
        )
    tenant = _field(message, "tenant", str, "default", required=False)
    if not tenant:
        raise ProtocolError("tenant must be a non-empty string")
    deadline_s = _field(message, "deadline_s", float, None, required=False)
    if deadline_s is not None and deadline_s <= 0:
        raise ProtocolError("deadline_s must be > 0, got %r" % deadline_s)
    return {
        "workload": workload,
        "runs": runs,
        "seed": seed,
        "scale": scale,
        "switch_probability": switch_probability,
        "tenant": tenant,
        "deadline_s": deadline_s,
    }
