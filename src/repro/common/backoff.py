"""Capped exponential backoff with deterministic jitter.

One delay schedule serves every retry loop: the process pool's task
retries, the service client's connect retries, and a worker's
registration, lease and completion retries.
"""

from __future__ import annotations

from repro.common.rng import DeterministicRng

#: The delay doubles from ``BACKOFF_BASE_S`` per attempt up to
#: ``BACKOFF_CAP_S``, each scaled by a deterministic jitter factor in
#: [0.5, 1.0) so retrying peers do not move in lockstep.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def backoff_delay(
    key: str,
    attempt: int,
    seed: int = 0,
    base: float = BACKOFF_BASE_S,
    cap: float = BACKOFF_CAP_S,
) -> float:
    """Seconds to wait before retry ``attempt`` (0-based) of ``key``.

    The jitter is a pure function of ``(seed, key, attempt)`` via the
    named fork machinery in :mod:`repro.common.rng`: callers with
    different keys desynchronize, while any single schedule is exactly
    reproducible.
    """
    bounded = min(cap, base * (2 ** min(max(0, attempt), 16)))
    jitter = (
        DeterministicRng(seed, "backoff")
        .fork(key)
        .fork("attempt%d" % attempt)
        .random()
    )
    return bounded * (0.5 + 0.5 * jitter)
