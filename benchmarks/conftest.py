"""Shared benchmark fixtures.

The detection figures (10, 12-17) all derive from one injection-campaign
suite over the twelve applications; it is computed once per benchmark
session.  Set ``CORD_BENCH_RUNS`` to change the number of injected runs
per application (default 8; the paper used 20-100 -- raise it for tighter
per-app numbers at proportional cost) and ``CORD_BENCH_JOBS`` (or
``REPRO_JOBS``) to fan the per-application campaigns out over worker
processes.
"""

import os

import pytest

from repro.experiments import Suite, SuiteConfig
from repro.workloads import WorkloadParams

RUNS_PER_APP = int(os.environ.get("CORD_BENCH_RUNS", "8"))
JOBS = int(os.environ.get("CORD_BENCH_JOBS", "0")) or None  # None: REPRO_JOBS


@pytest.fixture(scope="session")
def suite():
    """The full 12-application campaign suite (computed once)."""
    config = SuiteConfig(
        runs_per_app=RUNS_PER_APP,
        params=WorkloadParams(),
    )
    instance = Suite(config, jobs=JOBS)
    instance.campaigns()
    return instance


@pytest.fixture(scope="session", autouse=True)
def announce_analysis_backend():
    """Say once which analysis paths this benchmark session exercises."""
    from repro.trace.kernels import kernel_backend, kernels_enabled

    # The fused pass interprets the kernels' plans, so it runs with them.
    print(
        "\n[repro] analysis kernels: %s; interval-fused sweeps: %s"
        % (kernel_backend(), "on" if kernels_enabled() else "off")
    )
