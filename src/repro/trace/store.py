"""On-disk store of recorded packed traces (record-once / analyze-many).

The injection campaigns and sensitivity sweeps decouple *recording* (one
functional simulation per (workload, seed, injection) triple) from
*analysis* (one cheap detector pass per configuration).  This store
persists each recorded run so an N-configuration sweep -- or a re-run of
the same campaign -- performs the simulation exactly once and replays the
packed trace from disk for every other consumer.

Keying: every entry is addressed by a *namespace* (the caller's identity
string for the program being run -- workload name plus its parameters)
plus a tuple of run components (seed, injection target, scheduler knobs).
The digest also folds in the store schema, so layout bumps miss cleanly
instead of decoding garbage.  See
``docs/trace-format.md`` for the full key scheme.

Integrity: every entry is wrapped in a checksummed frame
(:func:`frame_payload`) -- magic, payload length, SHA-256 digest -- so a
torn, truncated, or bit-flipped file is *detected*
(:class:`~repro.common.errors.StoreCorruptError`), never decoded into
garbage.  A corrupt entry is moved to ``<root>/quarantine/`` next to a
``*.reason.txt`` note and the read reports a miss, which makes the
caller transparently re-record through
:func:`repro.injection.campaign.record_injected_once`; per-store
counters (:attr:`PackedTraceStore.stats`) surface how often that
happened instead of staying silent.  See ``docs/resilience.md``.

Entries are written atomically through the shared crash-consistency
helper (:func:`repro.resilience.checkpoint.atomic_write_bytes`: same-dir
temp file, optional fsync, rename), so concurrent sweep processes
sharing one ``REPRO_CACHE_DIR`` never observe torn files and a killed
writer leaves at worst an orphaned ``*.tmp.<pid>`` file for the next
startup's litter collection.

Zero-copy reads: run entries are written as a ``CORDRUN3`` container --
a pickled ``extra`` dict, zero padding, then the v3 trace blob placed so
its column sections land 64-byte aligned in the *file* -- and served
back as ``mmap``-backed :class:`~repro.trace.packed.PackedTrace` views:
the frame checksum is verified over the mapped view (no copy), and the
trace columns are ``memoryview`` casts straight into the page cache.
Per-store counters split ``mmap_hits`` from ``eager_decodes`` (big-endian
hosts or files ``mmap`` refuses), so a warm sweep can assert it paid
zero full deserializations.
"""

from __future__ import annotations

import hashlib
import logging
import mmap
import os
import pickle
import re
import struct
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import LogFormatError, StoreCorruptError
from repro.resilience import faults
from repro.resilience.checkpoint import (
    atomic_write_bytes,
    canonicalize,
    prune_quarantine,
)
from repro.trace.packed import PackedTrace
from repro.trace.serialize import (
    V3_ALIGN,
    decode_packed_trace,
    encode_packed_trace,
    view_packed_trace,
)

logger = logging.getLogger("repro.trace.store")

#: Bump when the entry layout changes incompatibly; bumping renames
#: every key, so older files are simply never looked up again.
#: 2 = checksummed framing; 3 = run entries are ``CORDRUN3`` containers
#: only (pre-container pickled-dict entries miss by key).
_STORE_SCHEMA = 3

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Entry frame: magic | u64 payload length | sha256(payload) | payload.
FRAME_MAGIC = b"CORDSTOR1"
_FRAME_LEN = struct.Struct("<Q")
_DIGEST_SIZE = hashlib.sha256().digest_size
_FRAME_HEADER = len(FRAME_MAGIC) + _FRAME_LEN.size + _DIGEST_SIZE

#: Unpickling errors that mean *version skew*, not file corruption: the
#: frame already proved the bytes are exactly what some past process
#: wrote, so a class that no longer unpickles is stale, not damaged.
_STALE_ERRORS = (AttributeError, ImportError, TypeError, ValueError,
                 pickle.UnpicklingError, EOFError, IndexError)


def frame_payload(payload: bytes) -> bytes:
    """Wrap ``payload`` in the store's checksummed frame."""
    return b"".join((
        FRAME_MAGIC,
        _FRAME_LEN.pack(len(payload)),
        hashlib.sha256(payload).digest(),
        payload,
    ))


def unframe_payload(data: bytes, what: str = "store entry") -> bytes:
    """Validate and strip the frame; raises :class:`StoreCorruptError`.

    Every failure mode of a damaged file maps to a distinct reason:
    short header, wrong magic, length mismatch (torn/truncated write),
    and digest mismatch (bit rot).
    """
    if len(data) < _FRAME_HEADER:
        raise StoreCorruptError(
            "%s is %d bytes, shorter than the %d-byte frame header"
            % (what, len(data), _FRAME_HEADER)
        )
    if data[: len(FRAME_MAGIC)] != FRAME_MAGIC:
        raise StoreCorruptError(
            "%s has bad frame magic %r" % (what, bytes(data[:8]))
        )
    (length,) = _FRAME_LEN.unpack_from(data, len(FRAME_MAGIC))
    payload = data[_FRAME_HEADER:]
    if len(payload) != length:
        raise StoreCorruptError(
            "%s payload is %d bytes, frame promises %d (torn write?)"
            % (what, len(payload), length)
        )
    digest = data[len(FRAME_MAGIC) + _FRAME_LEN.size: _FRAME_HEADER]
    if hashlib.sha256(payload).digest() != digest:
        raise StoreCorruptError(
            "%s failed its payload checksum (bit rot or tampering)"
            % what
        )
    return payload


#: Run-entry container: magic | u32 extra_len | u32 pad_len |
#: pickled extra | zero pad | v3 trace blob.  The pad is sized so the
#: trace blob starts 64-byte aligned *in the file* (the frame header in
#: front of the payload is 49 bytes), which keeps the v3 column
#: sections page-cache aligned when the file is mmapped.
_RUN_MAGIC = b"CORDRUN3"
_RUN_HEADER = struct.Struct("<II")


def encode_run_entry(packed: PackedTrace, extra: Dict[str, Any]) -> bytes:
    """Serialize one recorded run as a ``CORDRUN3`` container payload."""
    trace = encode_packed_trace(packed)
    extra_bytes = pickle.dumps(extra, protocol=pickle.HIGHEST_PROTOCOL)
    prefix = (_FRAME_HEADER + len(_RUN_MAGIC) + _RUN_HEADER.size
              + len(extra_bytes))
    pad = -prefix % V3_ALIGN
    return b"".join((
        _RUN_MAGIC,
        _RUN_HEADER.pack(len(extra_bytes), pad),
        extra_bytes,
        b"\x00" * pad,
        trace,
    ))


class PackedTraceStore:
    """Directory-backed store of recorded runs.

    A *run entry* is one recorded execution: the packed trace plus a
    small picklable ``extra`` dict (e.g. which sync instance the injector
    removed).  A *value entry* is a bare picklable object (e.g. a
    workload's dynamic sync-instance count) keyed the same way.

    Attributes:
        stats: per-instance warning counters -- ``quarantined`` (corrupt
            entries detected and moved aside), ``io_errors`` (unreadable
            files), ``stale`` (healthy frames whose pickled classes no
            longer load), plus the resume-accounting pair ``run_hits`` /
            ``run_misses`` (recorded-trace lookups that were served from
            disk vs. had to be re-recorded -- the kill-anywhere tests
            assert on these).  The zero-copy split: ``mmap_hits`` (run
            entries served as mmap-backed views, no deserialization) vs.
            ``eager_decodes`` (full decode: big-endian hosts or
            files ``mmap`` refuses).  Reads never
            raise for any of these; the counters are how the healing
            stops being silent.
        fsync: whether writes fsync before their rename; ``None``
            follows ``REPRO_FSYNC``.  A store whose directory is deleted
            when its caller is done passes ``False``.
    """

    def __init__(self, root: os.PathLike, fsync: Optional[bool] = None):
        self.root = Path(root)
        self.fsync = fsync
        self.stats: Counter = Counter()

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def _digest(namespace: str, components: Tuple) -> str:
        ident = repr((_STORE_SCHEMA, namespace, components))
        return hashlib.sha256(ident.encode()).hexdigest()[:20]

    def _path(self, kind: str, namespace: str,
              components: Tuple) -> Path:
        # A readable prefix (for humans poking at the cache dir) plus the
        # collision-resistant digest (the actual key).
        prefix = _SAFE.sub("-", namespace)[:40].strip("-") or "run"
        return self.root / (
            "%s-%s-%s.pkl"
            % (kind, prefix, self._digest(namespace, components))
        )

    # -- corruption handling ---------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt entry aside with a human-readable reason file.

        The entry keeps its name under ``<root>/quarantine/`` so the
        damaged bytes stay available for a post-mortem; the read path
        then reports a miss and the caller re-records.
        """
        self.stats["quarantined"] += 1
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            reason = qdir / (path.name + ".reason.txt")
            reason.write_text(
                "quarantined store entry\n"
                "original path: %s\n"
                "reason: %s: %s\n" % (path, type(exc).__name__, exc)
            )
        except OSError as move_exc:
            # Quarantining is best-effort: a read-only cache directory
            # must not turn a recoverable corrupt entry into a crash.
            self.stats["quarantine_failed"] += 1
            logger.warning(
                "could not quarantine corrupt entry %s: %s",
                path, move_exc,
            )
        logger.warning("quarantined corrupt store entry %s: %s", path, exc)

    def _read_payload(self, path: Path, what: str) -> Optional[bytes]:
        """The checked read path shared by runs and values.

        Returns the verified payload bytes, or ``None`` for a miss --
        which covers unreadable files (counted in ``io_errors``) and
        corrupt ones (quarantined and counted in ``quarantined``).
        """
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.stats["io_errors"] += 1
            logger.warning("unreadable store entry %s: %s", path, exc)
            return None
        try:
            return unframe_payload(raw, what)
        except StoreCorruptError as exc:
            self._quarantine(path, exc)
            return None

    def _map_payload(self, path: Path, what: str):
        """Verified payload plus its mmap backing (or ``None`` backing).

        The zero-copy read path: the file is mapped read-only and the
        frame checksum is verified over the mapped view -- no copy into
        a Python ``bytes``.  Callers that keep column views over the
        payload must keep ``backing`` alive (``PackedTrace`` does, via
        its ``_backing`` slot).  Falls back to the eager
        :meth:`_read_payload` when the file cannot be mapped (e.g. an
        empty file, which ``mmap`` rejects -- the eager path then
        quarantines it as a short frame).
        """
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except FileNotFoundError:
            return None, None
        except (OSError, ValueError) as exc:
            logger.debug(
                "cannot mmap store entry %s (%s); reading eagerly",
                path, exc,
            )
            return self._read_payload(path, what), None
        view = memoryview(mapped)
        try:
            payload = unframe_payload(view, what)
        except StoreCorruptError as exc:
            # The in-flight traceback pins views over the map, so
            # teardown must tolerate outstanding exports.
            self._release(view, mapped)
            self._quarantine(path, exc)
            return None, None
        return payload, mapped

    @staticmethod
    def _release(payload, backing) -> None:
        """Best-effort teardown of an mmap backing we no longer need."""
        if backing is None:
            return
        try:
            if isinstance(payload, memoryview):
                payload.release()
            backing.close()
        except BufferError:
            # Some view over the map is still alive (it will close the
            # map when collected); never let teardown mask the read.
            pass

    # -- run entries -----------------------------------------------------------

    def _decode_run_payload(
        self, payload, backing
    ) -> Tuple[PackedTrace, Dict[str, Any]]:
        """Decode one verified ``CORDRUN3`` run payload.

        With an mmap backing the trace comes back zero-copy (counted in
        ``mmap_hits``); big-endian hosts and eager reads pay a full
        decode (counted in ``eager_decodes``).  Any other payload raises
        :class:`LogFormatError`.
        """
        if bytes(payload[: len(_RUN_MAGIC)]) != _RUN_MAGIC:
            raise LogFormatError("not a CORDRUN3 run entry")
        if len(payload) < len(_RUN_MAGIC) + _RUN_HEADER.size:
            raise LogFormatError("run entry container header truncated")
        extra_len, pad = _RUN_HEADER.unpack_from(payload, len(_RUN_MAGIC))
        start = len(_RUN_MAGIC) + _RUN_HEADER.size
        trace_start = start + extra_len + pad
        if trace_start > len(payload):
            raise LogFormatError(
                "run entry extra section overruns the payload"
            )
        extra = pickle.loads(payload[start: start + extra_len])
        trace_region = payload[trace_start:]
        if backing is not None:
            packed = view_packed_trace(trace_region, backing=backing)
        else:
            packed = decode_packed_trace(bytes(trace_region))
        if packed.zero_copy:
            self.stats["mmap_hits"] += 1
        else:
            self.stats["eager_decodes"] += 1
        return packed, extra

    def load_run(
        self, namespace: str, components: Tuple
    ) -> Optional[Tuple[PackedTrace, Dict[str, Any]]]:
        """The recorded run for this key, or None (miss/stale/corrupt).

        Corruption anywhere -- frame, pickle layer, or the trace bytes
        inside -- quarantines the entry and reports a miss, so the
        caller re-records instead of crashing or, worse, analyzing
        garbage.  Served zero-copy off an mmap when the entry is a
        ``CORDRUN3`` container and the file can be mapped.
        """
        path = self._path("trace", namespace, components)
        payload, backing = self._map_payload(
            path, "trace entry %s" % path.name
        )
        if payload is None:
            self.stats["run_misses"] += 1
            return None
        try:
            packed, extra = self._decode_run_payload(payload, backing)
        except LogFormatError as exc:
            # The frame checksum passed, yet the contents are not a
            # valid entry: the *writer* was broken.  Quarantine -- this
            # is corruption, just minted earlier.
            self._release(payload, backing)
            self._quarantine(path, exc)
            self.stats["run_misses"] += 1
            return None
        except _STALE_ERRORS:
            self._release(payload, backing)
            self.stats["stale"] += 1
            self.stats["run_misses"] += 1
            return None
        if not packed.zero_copy:
            # Eager decode copied everything out; the map is dead weight.
            self._release(payload, backing)
        self.stats["run_hits"] += 1
        return packed, extra

    def store_run(
        self,
        namespace: str,
        components: Tuple,
        packed: PackedTrace,
        extra: Dict[str, Any],
    ) -> None:
        self._write(
            self._path("trace", namespace, components),
            encode_run_entry(packed, extra),
        )

    def has_run(self, namespace: str, components: Tuple) -> bool:
        """Is a recording durable under this key?

        Existence only -- no read, no verification (a torn entry still
        quarantines and re-records at load time).  The run-level
        scheduler uses this to skip record tasks for runs a previous
        (possibly interrupted) campaign already recorded.
        """
        return self._path("trace", namespace, components).exists()

    def run_entry_path(self, namespace: str, components: Tuple) -> Path:
        """The on-disk path a run entry lives at (existence not implied).

        Exposed for the chaos harness (the ``store_corrupt_mid_job``
        fault truncates a real durable entry in place) and for tests
        that assert on the cache layout; ordinary readers go through
        :meth:`load_run`.
        """
        return self._path("trace", namespace, components)

    def entry_path(self, kind: str, namespace: str,
                   components: Tuple) -> Path:
        """The on-disk path for any entry ``kind`` (``trace``/``value``).

        The store-replication protocol ships whole framed entry files
        between hosts; because paths are a pure function of the key, the
        receiver lands the bytes at the identical relative path.
        """
        return self._path(kind, namespace, components)

    def quarantine_bytes(self, name: str, raw: bytes,
                         exc: Exception) -> None:
        """Quarantine loose bytes that never made it into the store.

        The replication receive path calls this when an in-flight
        payload fails its sha256 check: the damaged bytes are kept for
        post-mortem under ``<root>/quarantine/`` exactly like a corrupt
        on-disk entry, and counted in ``stats['quarantined']``.
        """
        self.stats["quarantined"] += 1
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            (qdir / name).write_bytes(raw)
            (qdir / (name + ".reason.txt")).write_text(
                "quarantined replication payload\n"
                "reason: %s: %s\n" % (type(exc).__name__, exc)
            )
        except OSError as write_exc:
            self.stats["quarantine_failed"] += 1
            logger.warning(
                "could not quarantine replication payload %s: %s",
                name, write_exc,
            )
        logger.warning("quarantined replication payload %s: %s", name, exc)

    def snapshot(self) -> Dict[str, int]:
        """The stats counters as a plain JSON-safe dict.

        The campaign service's ``health``/``result`` responses embed
        this, so operators see quarantines, stale entries, and the
        hit/miss split without attaching a debugger.
        """
        return {key: int(value) for key, value in sorted(self.stats.items())}

    # -- bare value entries ------------------------------------------------------

    def load_value(self, namespace: str, components: Tuple):
        """A cached picklable value for this key, or None."""
        path = self._path("value", namespace, components)
        payload = self._read_payload(path, "value entry %s" % path.name)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except _STALE_ERRORS:
            self.stats["stale"] += 1
            return None

    def store_value(self, namespace: str, components: Tuple,
                    value) -> None:
        # Canonicalized so that re-storing an equal value -- e.g. a
        # resumed run re-committing a result it rebuilt from durable
        # slices -- rewrites byte-identical files (the kill-anywhere
        # tests compare whole cache trees).
        self._write(
            self._path("value", namespace, components),
            pickle.dumps(
                canonicalize(value), protocol=pickle.HIGHEST_PROTOCOL
            ),
        )

    # -- housekeeping ------------------------------------------------------------

    def prune_quarantine(self, keep=None, max_age_s=None) -> int:
        """Age/count-cap the quarantine directory; counted in ``stats``."""
        pruned = prune_quarantine(
            self.quarantine_dir, keep=keep, max_age_s=max_age_s
        )
        if pruned:
            self.stats["quarantine_pruned"] += pruned
        return pruned

    # -- plumbing ----------------------------------------------------------------

    def _write(self, path: Path, payload: bytes) -> None:
        framed = frame_payload(payload)
        if faults.active() and faults.fire("store_truncate"):
            # Chaos harness: model a torn write by persisting only half
            # the frame.  The next read must detect and quarantine it.
            framed = framed[: max(1, len(framed) // 2)]
        atomic_write_bytes(path, framed, fsync=self.fsync)
