"""Spans recorded from the benchmark's side of each layer boundary.

A traced pass wraps the public functions of each layer (see
``LAYER_PATCHES``) without editing the program: the wrapper opens a span,
calls the original, and closes the span.  Each span records its name,
start, end, parent span and op id; spans stay in memory and are written
out as JSON lines when the pass ends.

A span's *self time* is its duration minus the part of it its child
spans cover, so a layer's figure never counts the layers it calls.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """What untraced passes use: every span is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, op: Optional[int] = None):
        return self._null


class Tracer:
    """Collects spans; parents are tracked per thread."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.perf_counter(), 0.0,
                    parent.id if parent else None, op)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Summed self time (seconds) per span name."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _covered(children.get(span.id, ()))
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.duration - covered
            )
        return totals

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts


def _covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    reach = float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        start = max(span.start, reach)
        if span.end > start:
            total += span.end - start
            reach = span.end
    return total


#: (span name, module, attribute path) for every layer boundary the
#: traced pass wraps.  A function imported by name into a caller module
#: is wrapped where the caller looks it up.  ``run_program`` is wrapped
#: only as the campaign layer calls it, so sizing dry runs stay in
#: ``injection.sizing`` and Figure 11's runs in ``timingsim.fig11``.
LAYER_PATCHES = (
    ("engine.record", "repro.injection.campaign", "run_program"),
    ("trace.load", "repro.trace.store", "PackedTraceStore.load_run"),
    ("cord.plan", "repro.cord.coherence", "build_coherence_plan"),
    ("cord.plan", "repro.cord.detector", "build_coherence_plan"),
    ("cord.fused", "repro.cord.fused", "fuse_cord_detectors"),
    ("cord.kernel", "repro.cord.detector", "CordDetector.process_packed"),
    ("detectors.ideal", "repro.detectors.ideal",
     "IdealDetector.process_packed"),
    ("detectors.vector", "repro.detectors.vector_cord",
     "LimitedVectorDetector.process_packed"),
)


@contextlib.contextmanager
def layer_patches(tracer):
    """Wrap every ``LAYER_PATCHES`` target for the life of the block."""
    if not tracer.enabled:
        yield
        return
    undo = []
    try:
        for name, module_name, path in LAYER_PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original))
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
