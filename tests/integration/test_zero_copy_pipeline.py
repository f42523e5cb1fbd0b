"""Integration: the zero-copy trace plane end to end.

A warm store-backed sweep performs zero eager deserializations (every
read is an mmap hit).
"""

from repro.injection.campaign import record_injected_once
from repro.trace import PackedTraceStore
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(scale=0.25)


def _factory(name="fft"):
    return get_workload(name).program_factory(PARAMS)


def test_warm_store_reads_are_all_mmap_hits(tmp_path):
    # Record a few runs cold, then replay them warm: the acceptance
    # criterion is zero per-task full deserializations on the warm pass.
    store = PackedTraceStore(tmp_path)
    namespace = "fft/warm"
    keys = [(seed, seed % 3, 0.1) for seed in (5, 6, 7)]
    for seed, target, switch in keys:
        record_injected_once(
            _factory(), seed=seed, target_index=target,
            switch_probability=switch, store=store, namespace=namespace,
        )
    warm = PackedTraceStore(tmp_path)
    for seed, target, switch in keys:
        recorded = record_injected_once(
            _factory(), seed=seed, target_index=target,
            switch_probability=switch, store=warm, namespace=namespace,
        )
        assert recorded.packed.zero_copy
    assert warm.stats["mmap_hits"] == len(keys)
    assert warm.stats["eager_decodes"] == 0
    assert warm.stats["run_misses"] == 0
