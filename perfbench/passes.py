"""What one pass of a workload reports, and the latency summaries."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: A tail percentile must leave at least this many ops beyond it.
TAIL_OPS_BEYOND = 10


@dataclass
class PassResult:
    """One pass: its timed region, per-op latencies and failures."""

    wall_s: float = 0.0
    attempted: int = 0
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    #: Counters read from the program (events, CORD, store, service).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Op id -> class, for per-class latency figures ("cold", "warm").
    op_class: Dict[int, str] = field(default_factory=dict)
    #: Op id -> what the op returned, for checks made after the pass.
    outputs: Dict[int, Any] = field(default_factory=dict)

    def begin(self) -> int:
        """Count one more attempted op and return its id."""
        self.attempted += 1
        return self.attempted

    def fail(self, detail: str) -> None:
        self.failures.append(detail)

    def mismatch(self, detail: str) -> None:
        self.mismatches.append(detail)


def tail(latencies: List[float]) -> Tuple[int, float]:
    """The highest whole percentile with ``TAIL_OPS_BEYOND`` ops past it.

    Returns ``(percentile, value)``; the value is the nearest-rank
    sample, so exactly ``TAIL_OPS_BEYOND`` samples or more lie above it.
    """
    n = len(latencies)
    if n <= TAIL_OPS_BEYOND:
        raise ValueError(
            "a tail needs more than %d ops, got %d" % (TAIL_OPS_BEYOND, n)
        )
    percentile = (100 * (n - TAIL_OPS_BEYOND)) // n
    rank = math.ceil(percentile * n / 100)
    return percentile, sorted(latencies)[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
