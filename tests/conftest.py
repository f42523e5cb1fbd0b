"""Shared fixtures: small deterministic programs for detector tests."""

from __future__ import annotations

import pytest

from repro.program import AddressSpace, Program
from repro.program.ops import ComputeOp, ReadOp, WriteOp
from repro.sync import Barrier, Mutex, barrier_wait, critical_increment
from repro.workloads.base import WorkloadParams

#: Tiny scale for workload-based tests (fast but structurally complete).
TINY = WorkloadParams(scale=0.25, compute_grain=8)

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves without it
    pass
else:
    # Tier-1 draws the same examples on every run, and keeps no example
    # database that could replay an earlier run's failure.
    settings.register_profile("tier1", derandomize=True, database=None)
    # CI's deep fuzz job draws fresh examples (``--hypothesis-profile
    # fuzz-random``) and prints the blob that reproduces a failure.
    settings.register_profile(
        "fuzz-random", derandomize=False, database=None, print_blob=True
    )
    settings.load_profile("tier1")


@pytest.fixture
def tiny_params():
    return TINY


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def counter_program():
    """Four threads incrementing a shared counter under one lock, with a
    barrier per round -- the canonical race-free program."""
    return build_counter_program()


def build_counter_program(rounds=4, n_threads=4):
    space = AddressSpace()
    mutex = Mutex.allocate(space, "m")
    barrier = Barrier.allocate(space, n_threads, "b")
    counter = space.alloc("counter")
    data = space.alloc_array("data", 32)

    def body(tid):
        for round_index in range(rounds):
            yield from critical_increment(mutex, counter)
            for k in range(4):
                yield WriteOp(data[(tid * 8 + round_index + k) % 32], tid)
            yield ComputeOp(3)
            yield from barrier_wait(barrier)
        value = yield ReadOp(counter)
        assert value is not None

    program = Program([body] * n_threads, space, name="counter")
    # Exposed for tests that assert on the counter's final value.
    program.counter_address = counter
    return program


@pytest.fixture
def racy_program():
    """Two threads writing the same word with no synchronization at all."""
    space = AddressSpace()
    shared = space.alloc("shared")

    def body(tid):
        for _ in range(3):
            value = yield ReadOp(shared)
            yield WriteOp(shared, (value or 0) + 1)
            yield ComputeOp(2)

    return Program([body] * 2, space, name="racy")
