"""Interval-fused D-sweep analysis: one pass, many CORD configurations.

A D sweep analyzes the same packed trace with detectors that differ in
exactly one integer, the sync-read window ``D``.  Inside one control-flow
trajectory every clock-valued quantity the kernel computes -- thread
clocks, timestamp entries, fragment clocks, memory timestamps -- is an
**affine function of D** (``a + b*D``): values start D-independent, and
every update either copies such a value, adds a constant, or adds ``D``
itself.  The branch decisions, on the other hand, are comparisons of
affine values, and a comparison of two affine (hence linear-in-D)
functions that agrees at both endpoints of an interval agrees everywhere
inside it.

:func:`run_fused_pass` exploits that: it runs the plan-driven kernel
(:meth:`CordDetector._process_packed_kernel`) once, carrying every
clock-valued quantity as a ``(value at D=dlo, value at D=dhi)`` pair and
**guarding every branch** -- a decision that differs between the
endpoints, or an equality test whose sides could cross inside the
interval, raises :class:`Inconsistent` and the caller falls back to
per-configuration passes.  On success the endpoint pairs determine each
affine exactly (two points, slope ``(hi-lo)/(dhi-dlo)``), and
:func:`_materialize` writes bit-exact results -- clocks, order log,
memory timestamps, counters, and race reports -- into every detector of
the group, interior D values included.

Race reports are the one place the pass must not guard: the reporting
predicate ``clk0 < ts + D`` feeds no simulated state (only the report
stream), so differing verdicts between endpoints are *expected* -- they
are the sweep's entire signal.  The pass records every candidate that
fires at either endpoint (linearity: a candidate silent at both
endpoints is silent everywhere inside) in snoop-scan order, and the
materializer replays each site per configuration with the kernel's
first-firing-candidate-per-event semantics.

The fusion entry point (:func:`fuse_cord_detectors`) groups freshly
built detectors that differ only in ``D``, tries the largest sweep
suffix first (trajectories are piecewise in D with splits concentrated
at small D: typically ``{1},{2},{4..}`` or ``{1},{2},{4},{8..}``), and
narrows on aborts; configurations left out of a fused suffix simply take
their normal per-configuration kernel pass.  Everything here is gated
the same way as the kernel (numpy-backed plans available, cold detector,
no window walker), and is pinned byte-identical by the
kernel-equivalence suites.  A caller that wants the kernel tier alone
passes ``compute_outcomes(allow_fused=False)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.detectors.base import DataRace

__all__ = ["Inconsistent", "fuse_cord_detectors"]


class Inconsistent(Exception):
    """The trajectory is not D-uniform over the attempted interval.

    Attributes:
        progress: fraction of the trace interpreted before the abort
            (drives the caller's narrowing heuristic).
    """

    def __init__(self, progress: float):
        super().__init__("fused pass diverged at %.0f%%" % (100 * progress))
        self.progress = progress


class _Diverged(Exception):
    """Internal guard-failure signal; converted to :class:`Inconsistent`.

    A fresh instance per raise, never a preallocated one: re-raising a
    shared exception instance *chains* tracebacks, pinning every
    aborted pass's frame (and through it the trace, plans, and detector
    group) for the life of the process.  Guard failures are rare, so
    the per-raise allocation is irrelevant.
    """


class _FusedResult:
    """Endpoint-pair final state of one successful fused pass."""

    __slots__ = (
        "dlo",
        "dhi",
        "clocks_l",
        "clocks_h",
        "frag_clock_l",
        "frag_clock_h",
        "frag_start",
        "log",
        "race_sites",
        "mem_read_l",
        "mem_read_h",
        "mem_write_l",
        "mem_write_h",
        "mem_folds",
        "mem_bcasts",
        "fast_hits",
        "race_checks",
        "memts_orderings",
        "clock_changes",
        # The coherence plan's cache counters, carried so _materialize
        # reads everything from one place.
        "_coh_insertions",
        "_coh_evictions",
    )


def _group_key(det):
    """Detectors fuse when everything but ``D`` matches.

    The configuration (minus ``d``) pins geometry, entry count, window
    mode, and memory-timestamp use; the state snapshot pins "identically
    cold" (fresh builds -- the only callers -- always match it).
    """
    memts = det.memory_ts
    return (
        replace(det.config, d=1),
        det.n_threads,
        tuple(det.clocks),
        tuple(det.recorder._fragment_clock),
        tuple(det.recorder._fragment_start),
        memts.read_ts,
        memts.write_ts,
        memts.folds,
        memts.update_broadcasts,
        len(det.recorder.log.entries),
    )


#: The threshold ladder: each entry bounds the fused range to
#: ``[threshold, max(D)]``; tried in order, narrowing on aborts.
_THRESHOLDS = (4, 8, 16, 32)


def fuse_cord_detectors(detectors, packed) -> frozenset:
    """Fuse D-sweep groups among ``detectors`` over ``packed``.

    Returns the ``id()`` set of detectors whose pass was performed here;
    the caller must skip ``process_packed`` for them (their ``finish()``
    still runs normally).  Detectors that cannot fuse -- wrong type,
    warm, windowed, plans unavailable, or trajectory splits -- are left
    untouched.
    """
    from repro.cord.coherence import build_coherence_plan
    from repro.cord.detector import CordDetector

    from repro.resilience import faults

    fused: set = set()
    if faults.active() and faults.fire("fused_raise"):
        # Chaos harness: an unexpected crash in the fused tier.  The
        # degradation ladder (repro.resilience.guard) must catch it,
        # rebuild the group, and re-run on the kernel tier.
        raise RuntimeError(
            "chaos: injected fused-path fault (fused_raise)"
        )
    groups: Dict[tuple, List[CordDetector]] = {}
    for det in detectors:
        if type(det) is not CordDetector:
            # Subclasses hook per-event processing; same exclusion as
            # the kernel dispatch.
            continue
        if (
            det._walkers is not None
            or det.store.count
            or det._kernel_spent
            or det.recorder._finalized
        ):
            continue
        groups.setdefault(_group_key(det), []).append(det)

    for group in groups.values():
        if len(group) < 2:
            continue
        group.sort(key=lambda det: det._d)
        proto = group[0]
        if proto._kernel_unsafe(packed):
            continue
        plan = packed.segment_plan(proto._line_mask)
        if plan is None:  # kernels disabled (no numpy / escape hatch)
            continue
        coh = packed.derived(
            proto._coherence_key(),
            lambda: build_coherence_plan(
                packed,
                plan,
                proto._line_mask,
                proto._set_shift,
                proto._set_mask,
                proto.snoop.caches[0]._capacity,
                proto.config.n_processors,
                proto.thread_proc,
            ),
        )
        # Largest-suffix-first: splits concentrate at small D
        # (trajectories partition as {1},{2},{4..} with occasional
        # {8,16},{32..} tails), so try [4..] and narrow on aborts.  An
        # aborted attempt wastes only its interpreted prefix; success
        # replaces len(suffix) kernel passes with one ~2x pass.
        tried = None
        for threshold in _THRESHOLDS:
            suffix = [det for det in group if det._d >= threshold]
            if len(suffix) < 2 or suffix[0]._d == suffix[-1]._d:
                break
            key = (suffix[0]._d, suffix[-1]._d)
            if key == tried:
                continue
            tried = key
            try:
                result = _fused_pass(
                    proto, packed, plan, coh, suffix[0]._d, suffix[-1]._d
                )
            except Inconsistent:
                continue
            for det in suffix:
                _materialize(det, result)
                fused.add(id(det))
            break
    return frozenset(fused)


def _materialize(det, result: _FusedResult) -> None:
    """Write one configuration's exact results out of the endpoint pairs.

    Every pair ``(lo, hi)`` is an affine ``a + b*D`` sampled at ``dlo``
    and ``dhi``; with ``span = dhi - dlo`` the slope is ``(hi-lo)/span``
    (exact by construction -- a remainder would mean the pass's guards
    let a non-affine value through, so it is asserted).
    """
    from repro.cord.detector import _LogEntry

    d = det._d
    span = result.dhi - result.dlo
    rel = d - result.dlo

    def mat(lo: int, hi: int) -> int:
        b, remainder = divmod(hi - lo, span)
        if remainder:
            raise AssertionError(
                "non-affine fused value: lo=%d hi=%d span=%d"
                % (lo, hi, span)
            )
        return lo + b * rel

    det.clocks[:] = map(mat, result.clocks_l, result.clocks_h)
    recorder = det.recorder
    recorder._fragment_clock[:] = map(
        mat, result.frag_clock_l, result.frag_clock_h
    )
    recorder._fragment_start[:] = result.frag_start
    entries = recorder.log.entries
    for flo, fhi, thread, count in result.log:
        entries.append(_LogEntry(mat(flo, fhi), thread, count))

    record_race = det.outcome.record_race
    for thread, icount, address, cl, ch, cands in result.race_sites:
        clk0 = mat(cl, ch)
        for remote, tl, th in cands:
            ts = mat(tl, th)
            if clk0 < ts + d:
                record_race(
                    DataRace(
                        access=(thread, icount),
                        address=address,
                        other_thread=None,
                        detail="clk=%d ts=%d P%d" % (clk0, ts, remote),
                    )
                )
                break

    memts = det.memory_ts
    memts.read_ts = mat(result.mem_read_l, result.mem_read_h)
    memts.write_ts = mat(result.mem_write_l, result.mem_write_h)
    memts.folds = result.mem_folds
    memts.update_broadcasts = result.mem_bcasts
    caches = det.snoop.caches
    coh_ins = result._coh_insertions
    coh_ev = result._coh_evictions
    for p in range(len(caches)):
        caches[p].insertions += coh_ins[p]
        caches[p].evictions += coh_ev[p]
    det.fast_hits += result.fast_hits
    det.race_checks += result.race_checks
    det.memts_orderings += result.memts_orderings
    det.clock_changes += result.clock_changes
    det._kernel_spent = True


def _fused_pass(
    proto, packed, plan, coh, dlo: int, dhi: int
) -> _FusedResult:
    """One endpoint-pair run of the plan-driven kernel over [dlo, dhi].

    Structure-for-structure the same interpretation as
    ``CordDetector._process_packed_kernel`` (keep the two in sync!),
    with every clock-valued variable carried as a lo/hi pair and every
    evaluated comparison guarded:

    * an **ordering** of affine values that agrees at both endpoints
      holds on the whole interval (the difference is linear in D), so
      truth equality between the endpoints is the full guard;
    * an **equality** that holds at both endpoints is an identity (two
      affines agreeing at two points coincide); one that *fails* at both
      endpoints additionally needs the same sign on both differences,
      else the sides could cross -- and be momentarily equal -- inside;
    * guards mirror the concrete loop's short-circuiting exactly: a
      comparison the concrete pass would not evaluate is not guarded
      (no spurious aborts, no missed divergence).

    Word masks, entry counts, check-filter bits, fragment starts, and
    every counter are decision-shaped (identical across the interval
    once all guards pass) and carried once.  Raises :class:`Inconsistent`
    -- with no detector state touched -- when a guard fails.
    """
    d_l = dlo
    d_h = dhi
    use_mem = proto._use_mem
    entries_per_line = proto._entries_per_line
    n_threads = proto.n_threads
    initial = proto.clocks  # group key pinned all members to this state
    clocks_l = list(initial)
    clocks_h = list(initial)
    frag_clock_l = list(proto.recorder._fragment_clock)
    frag_clock_h = list(proto.recorder._fragment_clock)
    frag_start = list(proto.recorder._fragment_start)
    log: List[Tuple[int, int, int, int]] = []
    log_append = log.append
    race_sites: List[tuple] = []
    fast_hits = 0
    race_checks = 0
    memts_orderings = 0
    clock_changes = 0

    threads, addresses, flag_col, icounts = packed.hot_columns()
    wbits = packed.geometry_columns(
        proto._line_mask, proto._set_shift, proto._set_mask
    )[2]
    starts = plan.starts
    seg_rmasks = plan.read_masks
    seg_wmasks = plan.write_masks
    slots = coh.slots
    cands_col = coh.cands
    evicts = coh.evicts
    collapse_end = coh.collapse_end

    n_entries = coh.n_slots * entries_per_line
    tsa_l = [0] * n_entries
    tsa_h = [0] * n_entries
    rma = [0] * n_entries
    wma = [0] * n_entries
    cnt = [0] * coh.n_slots
    filters = bytearray(coh.n_slots)
    fclockp_l = [0] * coh.n_slots
    fclockp_h = [0] * coh.n_slots

    memts = proto.memory_ts
    mem_read_l = mem_read_h = memts.read_ts
    mem_write_l = mem_write_h = memts.write_ts
    mem_folds = memts.folds
    mem_bcasts = memts.update_broadcasts

    abort = _Diverged
    evbs = coh.evb
    k = 0
    try:
        for k in range(len(starts) - 1):
            i = starts[k]
            j = starts[k + 1]
            thread = threads[i]
            sl = slots[i]
            idx = i
            attempt = j - i >= 2 and collapse_end[i] == j
            while idx < j:
                if attempt:
                    attempt = False
                    if idx == i:
                        rmask_seg = seg_rmasks[k]
                        wmask_seg = seg_wmasks[k]
                    else:
                        rmask_seg = 0
                        wmask_seg = 0
                        for r in range(idx, j):
                            if flag_col[r] & 1:
                                wmask_seg |= wbits[r]
                            else:
                                rmask_seg |= wbits[r]
                    cl = clocks_l[thread]
                    ch = clocks_h[thread]
                    fl = filters[sl]
                    base = sl * entries_per_line
                    n_ent = cnt[sl]
                    e_at = -1
                    if n_ent:
                        tl = tsa_l[base]
                        th = tsa_h[base]
                        eq = tl == cl
                        if eq != (th == ch):
                            raise abort
                        if eq:
                            e_at = base
                        else:
                            if (tl < cl) != (th < ch):
                                raise abort
                            for e in range(base + 1, base + n_ent):
                                tl = tsa_l[e]
                                th = tsa_h[e]
                                eq = tl == cl
                                if eq != (th == ch):
                                    raise abort
                                if eq:
                                    e_at = e
                                    break
                                if (tl < cl) != (th < ch):
                                    raise abort
                    filters_now = fclockp_l[sl] == cl
                    if filters_now != (fclockp_h[sl] == ch):
                        raise abort
                    if not filters_now and (fclockp_l[sl] < cl) != (
                        fclockp_h[sl] < ch
                    ):
                        raise abort
                    if (
                        not wmask_seg
                        or (filters_now and fl & 2)
                        or (e_at >= 0 and not wmask_seg & ~wma[e_at])
                    ) and (
                        not rmask_seg
                        or (filters_now and fl & 1)
                        or (e_at >= 0 and not rmask_seg & ~rma[e_at])
                    ):
                        fast_hits += j - idx
                        if e_at < 0:
                            if n_ent == entries_per_line:
                                last = base + n_ent - 1
                                if use_mem:
                                    mem_folds += 1
                                    changed = False
                                    tl = tsa_l[last]
                                    th = tsa_h[last]
                                    if rma[last]:
                                        t = tl > mem_read_l
                                        if t != (th > mem_read_h):
                                            raise abort
                                        if t:
                                            mem_read_l = tl
                                            mem_read_h = th
                                            changed = True
                                    if wma[last]:
                                        t = tl > mem_write_l
                                        if t != (th > mem_write_h):
                                            raise abort
                                        if t:
                                            mem_write_l = tl
                                            mem_write_h = th
                                            changed = True
                                    if changed:
                                        mem_bcasts += 1
                                shift_from = last
                            else:
                                cnt[sl] = n_ent + 1
                                shift_from = base + n_ent
                            for e in range(shift_from, base, -1):
                                tsa_l[e] = tsa_l[e - 1]
                                tsa_h[e] = tsa_h[e - 1]
                                rma[e] = rma[e - 1]
                                wma[e] = wma[e - 1]
                            tsa_l[base] = cl
                            tsa_h[base] = ch
                            rma[base] = rmask_seg
                            wma[base] = wmask_seg
                        else:
                            rma[e_at] |= rmask_seg
                            wma[e_at] |= wmask_seg
                        break

                cur = idx
                idx += 1
                eflags = flag_col[cur]
                evb = evbs[cur]
                wbit = wbits[cur]
                cl = clocks_l[thread]
                ch = clocks_h[thread]
                is_write = eflags & 1
                if evb & 1:
                    fast = False
                    fl = filters[sl]
                    if fl & (2 if is_write else 1):
                        fast = fclockp_l[sl] == cl
                        if fast != (fclockp_h[sl] == ch):
                            raise abort
                        if not fast and (fclockp_l[sl] < cl) != (
                            fclockp_h[sl] < ch
                        ):
                            raise abort
                    if not fast:
                        base = sl * entries_per_line
                        n = cnt[sl]
                        if n:
                            tl = tsa_l[base]
                            th = tsa_h[base]
                            eq = tl == cl
                            if eq != (th == ch):
                                raise abort
                            if eq:
                                mask = wma[base] if is_write else rma[base]
                                fast = bool(mask & wbit)
                            else:
                                if (tl < cl) != (th < ch):
                                    raise abort
                                for e in range(base + 1, base + n):
                                    tl = tsa_l[e]
                                    th = tsa_h[e]
                                    eq = tl == cl
                                    if eq != (th == ch):
                                        raise abort
                                    if eq:
                                        mask = (
                                            wma[e] if is_write else rma[e]
                                        )
                                        fast = bool(mask & wbit)
                                        break
                                    if (tl < cl) != (th < ch):
                                        raise abort
                    if fast:
                        fast_hits += 1
                        base = sl * entries_per_line
                        n = cnt[sl]
                        # Record-search: guarded like the check above
                        # (when ``fast`` came from the filter the check
                        # skipped the entry scan, so these comparisons
                        # are evaluated here for the first time).
                        hit = False
                        if n:
                            tl = tsa_l[base]
                            th = tsa_h[base]
                            eq = tl == cl
                            if eq != (th == ch):
                                raise abort
                            if eq:
                                hit = True
                                if is_write:
                                    wma[base] |= wbit
                                else:
                                    rma[base] |= wbit
                            elif (tl < cl) != (th < ch):
                                raise abort
                        if not hit:
                            merged = False
                            if n > 1:
                                for e in range(base + 1, base + n):
                                    tl = tsa_l[e]
                                    th = tsa_h[e]
                                    eq = tl == cl
                                    if eq != (th == ch):
                                        raise abort
                                    if eq:
                                        if is_write:
                                            wma[e] |= wbit
                                        else:
                                            rma[e] |= wbit
                                        merged = True
                                        break
                                    if (tl < cl) != (th < ch):
                                        raise abort
                            if not merged:
                                if n == entries_per_line:
                                    last = base + n - 1
                                    if use_mem:
                                        mem_folds += 1
                                        changed = False
                                        tl = tsa_l[last]
                                        th = tsa_h[last]
                                        if rma[last]:
                                            t = tl > mem_read_l
                                            if t != (th > mem_read_h):
                                                raise abort
                                            if t:
                                                mem_read_l = tl
                                                mem_read_h = th
                                                changed = True
                                        if wma[last]:
                                            t = tl > mem_write_l
                                            if t != (th > mem_write_h):
                                                raise abort
                                            if t:
                                                mem_write_l = tl
                                                mem_write_h = th
                                                changed = True
                                        if changed:
                                            mem_bcasts += 1
                                    shift_from = base + n - 1
                                else:
                                    cnt[sl] = n + 1
                                    shift_from = base + n
                                for e in range(shift_from, base, -1):
                                    tsa_l[e] = tsa_l[e - 1]
                                    tsa_h[e] = tsa_h[e - 1]
                                    rma[e] = rma[e - 1]
                                    wma[e] = wma[e - 1]
                                tsa_l[base] = cl
                                tsa_h[base] = ch
                                if is_write:
                                    rma[base] = 0
                                    wma[base] = wbit
                                else:
                                    rma[base] = wbit
                                    wma[base] = 0
                        if eflags & 3 == 3:
                            boundary = icounts[cur] + 1
                            log_append(
                                (
                                    frag_clock_l[thread],
                                    frag_clock_h[thread],
                                    thread,
                                    boundary - frag_start[thread],
                                )
                            )
                            new_l = cl + 1
                            new_h = ch + 1
                            frag_clock_l[thread] = new_l
                            frag_clock_h[thread] = new_h
                            frag_start[thread] = boundary
                            clocks_l[thread] = new_l
                            clocks_h[thread] = new_h
                            clock_changes += 1
                        continue

                is_sync = eflags & 2
                new_l = cl
                new_h = ch
                race_checks += 1
                clean_line = True
                site_cands = None
                cand = cands_col[cur]
                if cand is not None:
                    for rslot, remote in cand:
                        n_resident = cnt[rslot]
                        base = rslot * entries_per_line
                        candidates = None
                        if is_write:
                            for e in range(base, base + n_resident):
                                rm = rma[e]
                                wm = wma[e]
                                if rm or wm:
                                    clean_line = False
                                    if (rm | wm) & wbit:
                                        pair = (tsa_l[e], tsa_h[e])
                                        if candidates is None:
                                            candidates = [pair]
                                        else:
                                            candidates.append(pair)
                            if use_mem:
                                for e in range(base, base + n_resident):
                                    mem_folds += 1
                                    changed = False
                                    tl = tsa_l[e]
                                    th = tsa_h[e]
                                    if rma[e]:
                                        t = tl > mem_read_l
                                        if t != (th > mem_read_h):
                                            raise abort
                                        if t:
                                            mem_read_l = tl
                                            mem_read_h = th
                                            changed = True
                                    if wma[e]:
                                        t = tl > mem_write_l
                                        if t != (th > mem_write_h):
                                            raise abort
                                        if t:
                                            mem_write_l = tl
                                            mem_write_h = th
                                            changed = True
                                    if changed:
                                        mem_bcasts += 1
                            cnt[rslot] = 0
                            filters[rslot] = 0
                        else:
                            for e in range(base, base + n_resident):
                                wm = wma[e]
                                if wm:
                                    clean_line = False
                                    if wm & wbit:
                                        pair = (tsa_l[e], tsa_h[e])
                                        if candidates is None:
                                            candidates = [pair]
                                        else:
                                            candidates.append(pair)
                            filters[rslot] &= 1
                        if candidates is None:
                            continue
                        for tl, th in candidates:
                            if is_sync:
                                # Sync read or write: at least D past
                                # the conflicting sync timestamp (see
                                # CordDetector._interpret for the write
                                # rationale).
                                t = tl + d_l > new_l
                                if t != (th + d_h > new_h):
                                    raise abort
                                if t:
                                    new_l = tl + d_l
                                    new_h = th + d_h
                            else:
                                t = cl <= tl
                                if t != (ch <= th):
                                    raise abort
                                if t:
                                    t2 = tl + 1 > new_l
                                    if t2 != (th + 1 > new_h):
                                        raise abort
                                    if t2:
                                        new_l = tl + 1
                                        new_h = th + 1
                                # The report predicate feeds no state:
                                # unguarded by design (see module doc).
                                if cl < tl + d_l or ch < th + d_h:
                                    if site_cands is None:
                                        site_cands = []
                                    site_cands.append((remote, tl, th))
                    if site_cands is not None:
                        race_sites.append(
                            (
                                thread,
                                icounts[cur],
                                addresses[cur],
                                cl,
                                ch,
                                site_cands,
                            )
                        )
                if use_mem:
                    if is_write:
                        mem_l = mem_read_l
                        mem_h = mem_read_h
                        t = mem_write_l > mem_l
                        if t != (mem_write_h > mem_h):
                            raise abort
                        if t:
                            mem_l = mem_write_l
                            mem_h = mem_write_h
                    else:
                        mem_l = mem_write_l
                        mem_h = mem_write_h
                    if is_sync and not is_write:
                        t = mem_l + d_l > new_l
                        if t != (mem_h + d_h > new_h):
                            raise abort
                        if t:
                            new_l = mem_l + d_l
                            new_h = mem_h + d_h
                            memts_orderings += 1
                    else:
                        t = cl <= mem_l
                        if t != (ch <= mem_h):
                            raise abort
                        if t:
                            t2 = mem_l + 1 > new_l
                            if t2 != (mem_h + 1 > new_h):
                                raise abort
                            if t2:
                                new_l = mem_l + 1
                                new_h = mem_h + 1
                                memts_orderings += 1

                # new_clock >= clk0 always (it only ever rises), so the
                # != below is an ordering and truth equality suffices.
                t = new_l != cl
                if t != (new_h != ch):
                    raise abort
                if t:
                    icount = icounts[cur]
                    log_append(
                        (
                            frag_clock_l[thread],
                            frag_clock_h[thread],
                            thread,
                            icount - frag_start[thread],
                        )
                    )
                    frag_clock_l[thread] = new_l
                    frag_clock_h[thread] = new_h
                    frag_start[thread] = icount
                    clocks_l[thread] = new_l
                    clocks_h[thread] = new_h
                    clock_changes += 1

                if not evb & 2:
                    victim = evicts.get(cur)
                    if victim is not None:
                        if use_mem:
                            vbase = victim * entries_per_line
                            for e in range(vbase, vbase + cnt[victim]):
                                mem_folds += 1
                                changed = False
                                tl = tsa_l[e]
                                th = tsa_h[e]
                                if rma[e]:
                                    t = tl > mem_read_l
                                    if t != (th > mem_read_h):
                                        raise abort
                                    if t:
                                        mem_read_l = tl
                                        mem_read_h = th
                                        changed = True
                                if wma[e]:
                                    t = tl > mem_write_l
                                    if t != (th > mem_write_h):
                                        raise abort
                                    if t:
                                        mem_write_l = tl
                                        mem_write_h = th
                                        changed = True
                                if changed:
                                    mem_bcasts += 1
                        cnt[victim] = 0
                        filters[victim] = 0
                    cnt[sl] = 0
                    filters[sl] = 0
                clo = new_l
                chi = new_h
                if clean_line:
                    filters[sl] |= 3 if is_write else 1
                    fclockp_l[sl] = clo
                    fclockp_h[sl] = chi
                base = sl * entries_per_line
                n = cnt[sl]
                hit = False
                if n:
                    tl = tsa_l[base]
                    th = tsa_h[base]
                    eq = tl == clo
                    if eq != (th == chi):
                        raise abort
                    if eq:
                        hit = True
                        if is_write:
                            wma[base] |= wbit
                        else:
                            rma[base] |= wbit
                    elif (tl < clo) != (th < chi):
                        raise abort
                if not hit:
                    merged = False
                    if n > 1:
                        for e in range(base + 1, base + n):
                            tl = tsa_l[e]
                            th = tsa_h[e]
                            eq = tl == clo
                            if eq != (th == chi):
                                raise abort
                            if eq:
                                if is_write:
                                    wma[e] |= wbit
                                else:
                                    rma[e] |= wbit
                                merged = True
                                break
                            if (tl < clo) != (th < chi):
                                raise abort
                    if not merged:
                        if n == entries_per_line:
                            last = base + n - 1
                            if use_mem:
                                mem_folds += 1
                                changed = False
                                tl = tsa_l[last]
                                th = tsa_h[last]
                                if rma[last]:
                                    t = tl > mem_read_l
                                    if t != (th > mem_read_h):
                                        raise abort
                                    if t:
                                        mem_read_l = tl
                                        mem_read_h = th
                                        changed = True
                                if wma[last]:
                                    t = tl > mem_write_l
                                    if t != (th > mem_write_h):
                                        raise abort
                                    if t:
                                        mem_write_l = tl
                                        mem_write_h = th
                                        changed = True
                                if changed:
                                    mem_bcasts += 1
                            shift_from = base + n - 1
                        else:
                            cnt[sl] = n + 1
                            shift_from = base + n
                        for e in range(shift_from, base, -1):
                            tsa_l[e] = tsa_l[e - 1]
                            tsa_h[e] = tsa_h[e - 1]
                            rma[e] = rma[e - 1]
                            wma[e] = wma[e - 1]
                        tsa_l[base] = clo
                        tsa_h[base] = chi
                        if is_write:
                            rma[base] = 0
                            wma[base] = wbit
                        else:
                            rma[base] = wbit
                            wma[base] = 0

                if is_sync and is_write:
                    boundary = icounts[cur] + 1
                    log_append(
                        (
                            frag_clock_l[thread],
                            frag_clock_h[thread],
                            thread,
                            boundary - frag_start[thread],
                        )
                    )
                    new_l = clo + 1
                    new_h = chi + 1
                    frag_clock_l[thread] = new_l
                    frag_clock_h[thread] = new_h
                    frag_start[thread] = boundary
                    clocks_l[thread] = new_l
                    clocks_h[thread] = new_h
                    clock_changes += 1
                elif clean_line and j - idx >= 2 \
                        and collapse_end[idx] == j:
                    attempt = True
    except _Diverged:
        n = len(threads)
        raise Inconsistent(starts[k] / n if n else 1.0) from None

    result = _FusedResult()
    result.dlo = dlo
    result.dhi = dhi
    result.clocks_l = clocks_l
    result.clocks_h = clocks_h
    result.frag_clock_l = frag_clock_l
    result.frag_clock_h = frag_clock_h
    result.frag_start = frag_start
    result.log = log
    result.race_sites = race_sites
    result.mem_read_l = mem_read_l
    result.mem_read_h = mem_read_h
    result.mem_write_l = mem_write_l
    result.mem_write_h = mem_write_h
    result.mem_folds = mem_folds
    result.mem_bcasts = mem_bcasts
    result.fast_hits = fast_hits
    result.race_checks = race_checks
    result.memts_orderings = memts_orderings
    result.clock_changes = clock_changes
    result._coh_insertions = coh.insertions
    result._coh_evictions = coh.evictions
    return result
