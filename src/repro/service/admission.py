"""Admission control, backpressure, and fair scheduling policy.

Pure policy, no I/O: the server feeds in its current occupancy and gets
back either "admit" or a deterministic rejection ``(error code,
retry_after)``.  Keeping the policy side-effect free is what makes the
backpressure tests deterministic -- the same occupancy always yields the
same verdict, and the chaos faults (``queue_full``, ``tenant_flood``)
force each rejection branch without actually having to win a timing
race against the executor.

Limits (:class:`ServiceLimits`, set by ``cord-serve serve`` flags):

``queue_max``     (``--queue-max``)   total active (queued + running)
                                      jobs the server holds before
                                      rejecting (default 64)
``tenant_max``    (``--tenant-max``)  active jobs one tenant may hold
                                      (default 16)
``retry_after_s`` (``--retry-after``) the ``retry_after`` hint on
                                      rejections (default 1.0)

Fairness: :class:`FairQueue` is a round-robin over per-tenant FIFO
queues -- one flooding tenant can fill *its* quota but never starve
another tenant's queued jobs, because dispatch rotates tenants instead
of draining the global arrival order.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.resilience import faults
from repro.service import protocol


@dataclass(frozen=True)
class ServiceLimits:
    """The admission limits, fixed at server start."""

    queue_max: int = 64
    tenant_max: int = 16
    retry_after_s: float = 1.0


class AdmissionController:
    """Decides, deterministically, whether one submission is admitted.

    The decision order is fixed (drain, then global backpressure, then
    the tenant quota) so a submission rejected for one reason under
    load is rejected for the *same* reason on a retry into the same
    state -- clients can key backoff policy off the error code.
    """

    def __init__(self, limits: ServiceLimits):
        self.limits = limits

    def admit(
        self,
        tenant: str,
        active_total: int,
        active_tenant: int,
        draining: bool,
    ) -> Optional[Tuple[str, float]]:
        """``None`` to admit, else ``(error code, retry_after seconds)``.

        ``active_*`` counts cover queued plus running jobs -- a job
        stops consuming its slots only when it reaches a terminal
        state, so completion is the only thing that relieves pressure.
        The chaos faults force each rejection branch deterministically
        (one charge rejects exactly one submission).
        """
        retry = self.limits.retry_after_s
        if draining:
            return (protocol.ERR_DRAINING, retry)
        if faults.active() and faults.fire("queue_full"):
            return (protocol.ERR_QUEUE_FULL, retry)
        if active_total >= self.limits.queue_max:
            return (protocol.ERR_QUEUE_FULL, retry)
        if faults.active() and faults.fire("tenant_flood"):
            return (protocol.ERR_TENANT_OVER_QUOTA, retry)
        if active_tenant >= self.limits.tenant_max:
            return (protocol.ERR_TENANT_OVER_QUOTA, retry)
        return None


class FairQueue:
    """Round-robin across tenants, FIFO within a tenant.

    ``push`` appends to the submitting tenant's queue; ``pop`` serves
    the next tenant in rotation that has anything queued.  A tenant
    that drains empty leaves the rotation and re-enters at the back on
    its next submission, so bursty tenants cannot camp the front.
    """

    def __init__(self):
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, tenant: str, job_id: str) -> None:
        if tenant not in self._queues:
            self._queues[tenant] = deque()
        self._queues[tenant].append(job_id)
        self._count += 1

    def pop(self) -> Optional[str]:
        if not self._count:
            return None
        tenant, queue = next(iter(self._queues.items()))
        job_id = queue.popleft()
        self._count -= 1
        # Rotate: the served tenant goes to the back (or leaves, empty).
        del self._queues[tenant]
        if queue:
            self._queues[tenant] = queue
        return job_id

    def remove(self, job_id: str) -> bool:
        """Drop one queued job (cancellation); True when it was queued."""
        for tenant, queue in list(self._queues.items()):
            if job_id in queue:
                queue.remove(job_id)
                self._count -= 1
                if not queue:
                    del self._queues[tenant]
                return True
        return False

    def depth(self, tenant: Optional[str] = None) -> int:
        if tenant is None:
            return self._count
        return len(self._queues.get(tenant, ()))

    def depths(self) -> Dict[str, int]:
        return {
            tenant: len(queue) for tenant, queue in self._queues.items()
        }
