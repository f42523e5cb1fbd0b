"""Execution traces: the interface between the engine and the detectors.

The functional engine executes a program under a seeded interleaving
scheduler and produces a :class:`~repro.trace.stream.Trace`: the global
sequence of shared-memory access events, each labeled data/sync and carrying
the issuing thread's instruction count.  Detectors, the order recorder, the
timing model, and the replay verifier all consume traces.
"""

from repro.trace.events import MemoryEvent
from repro.trace.kernels import (
    ResidualView,
    SegmentPlan,
    kernel_backend,
    kernels_enabled,
)
from repro.trace.packed import PackedTrace
from repro.trace.stream import Trace
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.conflicts import ConflictSummary, summarize_conflicts
from repro.trace.serialize import (
    decode_packed_trace,
    decode_trace,
    encode_packed_trace,
    encode_packed_trace_v2,
    encode_trace,
    view_packed_trace,
)
from repro.trace.store import PackedTraceStore, mmap_enabled

__all__ = [
    "ConflictSummary",
    "MemoryEvent",
    "PackedTrace",
    "PackedTraceStore",
    "ResidualView",
    "SegmentPlan",
    "Trace",
    "TraceStats",
    "kernel_backend",
    "kernels_enabled",
    "compute_stats",
    "decode_packed_trace",
    "decode_trace",
    "encode_packed_trace",
    "encode_packed_trace_v2",
    "encode_trace",
    "mmap_enabled",
    "summarize_conflicts",
    "view_packed_trace",
]
