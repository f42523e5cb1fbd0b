"""Crash-consistent durable writes, litter collection, graceful shutdown.

This module is the bottom layer of the checkpointing stack (see
``docs/resilience.md`` section 6): one atomic-write helper that every
durable artifact goes through, garbage collection for the litter a
killed process leaves behind, and the SIGTERM/SIGINT machinery that
turns an interruption into a *resumable* exit instead of lost work.
The write-ahead journal built on top of it lives in
:mod:`repro.resilience.journal`.

Guarantees, in order of strength:

* **Atomicity against process death** -- :func:`atomic_write_bytes`
  writes to a same-directory ``*.tmp.<pid>`` file and ``os.replace``\\ s
  it into place, so a reader (or a resumed run) only ever sees the old
  bytes, the new bytes, or a miss -- never a torn file.  A ``kill -9``
  at any instruction boundary leaves at worst an orphaned temp file,
  which :func:`collect_tmp_litter` removes on the next startup.
* **Durability against OS/power loss** -- the helper ``fsync``\\ s the
  temp file before the rename (disable with ``REPRO_FSYNC=0`` when
  benchmarking on throwaway data).  Even without it, every consumer of
  these files sits behind the ``CORDSTOR1`` checksummed frame, so a
  lost or torn write is detected and redone, never trusted.

This module must stay import-light (stdlib plus the error taxonomy):
the trace store and the journal both build on it.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import logging
import os
import re
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

from repro.common.errors import InterruptedRunError

logger = logging.getLogger("repro.resilience.checkpoint")

#: Temp-file pattern the atomic writer produces and the collector hunts:
#: ``<final name>.tmp.<pid>``.
_TMP_RE = re.compile(r"\.tmp\.(\d+)$")

#: The CLI exit code for "interrupted, resumable" (see ``repro.cli``).
INTERRUPTED_EXIT_CODE = 71


def fsync_enabled() -> bool:
    """Should atomic writes fsync before renaming?  (``REPRO_FSYNC``, on.)"""
    return os.environ.get("REPRO_FSYNC", "1") != "0"


def atomic_write_bytes(
    path: os.PathLike, data: bytes, fsync: Optional[bool] = None
) -> Path:
    """Write ``data`` to ``path`` atomically: tmp -> fsync -> rename.

    The temp file lives in the target directory (same filesystem, so the
    rename is atomic) and carries the writer's pid, so concurrent
    writers never collide and the litter collector can tell a live
    writer's temp file from a dead one's.  Returns the final path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp.%d" % os.getpid())
    if fsync is None:
        fsync = fsync_enabled()
    with tmp.open("wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def atomic_write_text(
    path: os.PathLike, text: str, fsync: Optional[bool] = None
) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: os.PathLike, payload, fsync: Optional[bool] = None, **dumps_kwargs
) -> Path:
    """:func:`atomic_write_bytes` for a JSON document (trailing newline)."""
    return atomic_write_text(
        path, json.dumps(payload, **dumps_kwargs) + "\n", fsync=fsync
    )


def canonicalize(obj):
    """Rebuild ``obj`` so that pickling it is byte-deterministic.

    ``pickle`` memoizes by object *identity*: two semantically equal
    graphs serialize differently when one shares a string (or tuple)
    object where the other holds equal-but-distinct copies.  A resumed
    run assembles its results partly from freshly computed objects and
    partly from separately unpickled durable slices, so without
    normalization its cache bytes would differ from an uninterrupted
    run's even though every value is equal.  This helper recursively
    rebuilds containers and dataclasses and interns every string, which
    pins the identity structure to the value structure -- equal graphs
    then pickle to equal bytes.  Applied by the trace store's
    ``store_value`` and the campaign cache writer.
    """
    kind = type(obj)
    if kind is int or kind is float or kind is bool or obj is None:
        return obj  # scalar fast path: the bulk of any result graph
    if isinstance(obj, str):
        return sys.intern(obj)
    if isinstance(obj, dict):
        return type(obj)(
            (canonicalize(key), canonicalize(value))
            for key, value in obj.items()
        )
    if isinstance(obj, tuple):
        return tuple(canonicalize(item) for item in obj)
    if isinstance(obj, list):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return type(obj)(canonicalize(item) for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(obj, **{
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        })
    return obj


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for the pid baked into a temp file."""
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError as exc:
        return exc.errno != errno.ESRCH
    return True


def collect_tmp_litter(root: os.PathLike, max_age_s: float = 3600.0) -> int:
    """Remove orphaned ``*.tmp.<pid>`` files under ``root``; count removed.

    A temp file is an orphan when its writer process is dead -- the
    rename that would have retired it can never happen.  Files whose
    writer is still alive are left alone unless older than
    ``max_age_s`` (a recycled pid should not pin litter forever).
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    removed = 0
    now = time.time()
    for path in root.rglob("*.tmp.*"):
        match = _TMP_RE.search(path.name)
        if match is None or not path.is_file():
            continue
        pid = int(match.group(1))
        if pid != os.getpid() and _pid_alive(pid):
            try:
                fresh = (now - path.stat().st_mtime) < max_age_s
            except OSError:
                continue
            if fresh:
                continue
        try:
            path.unlink()
            removed += 1
        except OSError as exc:
            logger.warning("could not remove tmp litter %s: %s", path, exc)
    if removed:
        logger.info("removed %d orphaned tmp file(s) under %s",
                    removed, root)
    return removed


#: Quarantined entries kept per directory, and their maximum age.
QUARANTINE_KEEP = 32
QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0


def prune_quarantine(
    qdir: os.PathLike,
    keep: Optional[int] = None,
    max_age_s: Optional[float] = None,
) -> int:
    """Age- and count-cap a ``quarantine/`` directory; count entries pruned.

    Quarantined store entries exist for post-mortems, not forever: this
    removes entries older than ``max_age_s`` and, of the survivors, all
    but the ``keep`` newest.  An *entry* is the quarantined file plus
    its ``.reason.txt`` note; the pair is pruned together and counted
    once.  Returns the number of entries removed.
    """
    qdir = Path(qdir)
    if not qdir.is_dir():
        return 0
    if keep is None:
        keep = QUARANTINE_KEEP
    if max_age_s is None:
        max_age_s = QUARANTINE_MAX_AGE_S
    entries = []
    for path in qdir.iterdir():
        if not path.is_file() or path.name.endswith(".reason.txt"):
            continue
        try:
            mtime = path.stat().st_mtime
        except OSError:
            continue
        entries.append((mtime, path))
    entries.sort(reverse=True)  # newest first
    now = time.time()
    doomed = [
        path
        for index, (mtime, path) in enumerate(entries)
        if index >= keep or (now - mtime) > max_age_s
    ]
    pruned = 0
    for path in doomed:
        try:
            path.unlink()
            pruned += 1
        except OSError as exc:
            logger.warning("could not prune quarantined %s: %s", path, exc)
            continue
        reason = path.with_name(path.name + ".reason.txt")
        try:
            reason.unlink()
        except OSError:
            pass
    if pruned:
        logger.info("pruned %d quarantined entr(ies) under %s",
                    pruned, qdir)
    return pruned


# -- graceful shutdown ---------------------------------------------------------

#: Innermost-last stack of active shutdown contexts (main process only).
_ACTIVE: List["GracefulShutdown"] = []


class GracefulShutdown:
    """Turns SIGTERM/SIGINT into a drain request instead of sudden death.

    Used as a context manager around a long campaign or sweep: the first
    signal sets a flag that :meth:`check` (called at every journal
    transition) converts into :class:`InterruptedRunError` at the next
    safe point, and that the task stream polls -- the tasks in flight
    finish, the journal is flushed, the process exits resumable (71).
    A *second* signal restores the previous handler's behavior, so an
    operator can still insist.

    Handler installation is best-effort: off the main thread (or with
    ``install=False``) the object still works as a plain flag that
    :meth:`request` sets programmatically -- the chaos
    ``sigterm_drain`` fault uses exactly that.
    """

    def __init__(self, install: bool = True):
        self._install = install
        self._requested = False
        self._signum: Optional[int] = None
        self._previous = {}

    @property
    def requested(self) -> bool:
        return self._requested

    def request(self, signum: Optional[int] = None) -> None:
        """Flag a shutdown (signal handler body; also callable directly)."""
        self._requested = True
        self._signum = signum

    def check(self, run_id: Optional[str] = None) -> None:
        """Raise :class:`InterruptedRunError` if a shutdown was requested."""
        if self._requested:
            raise InterruptedRunError(run_id)

    def _handle(self, signum, _frame) -> None:
        if self._requested:
            # Second signal: the operator means it.  Fall back to the
            # previous disposition immediately.
            self._restore()
            os.kill(os.getpid(), signum)
            return
        logger.warning(
            "received signal %d: draining to a resumable stop "
            "(signal again to force)", signum,
        )
        self.request(signum)

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

    def __enter__(self) -> "GracefulShutdown":
        if self._install and threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                except (ValueError, OSError):
                    pass  # exotic platform or nested interpreter
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        if self in _ACTIVE:
            _ACTIVE.remove(self)
        self._restore()


def current_shutdown() -> Optional[GracefulShutdown]:
    """The innermost active shutdown context, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


def request_shutdown(run_id: Optional[str] = None) -> None:
    """Inject a shutdown request (the ``sigterm_drain`` fault's hook).

    With an active :class:`GracefulShutdown` the flag is set and the run
    drains at its next safe point, exactly as if SIGTERM had arrived.
    With none -- nothing is orchestrating a drain -- the interruption is
    raised on the spot.
    """
    active = current_shutdown()
    if active is not None:
        active.request()
    else:
        raise InterruptedRunError(run_id)


def check_shutdown(run_id: Optional[str] = None) -> None:
    """Raise :class:`InterruptedRunError` if any active context was flagged."""
    active = current_shutdown()
    if active is not None:
        active.check(run_id)


def run_interrupted() -> bool:
    """Has the active shutdown context (if any) been flagged?"""
    active = current_shutdown()
    return active is not None and active.requested


ShouldStop = Callable[[], bool]
