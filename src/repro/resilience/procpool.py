"""One pre-forked process pool for every caller that computes elsewhere.

The Suite's stream threads (:func:`repro.experiments.pipeline
.inline_stream` at ``--jobs N``), ``cord-serve``'s job threads and
``cord-worker``'s lease threads run their tasks here, each through the
blocking :meth:`ProcessPool.run`; ``docs/resilience.md`` §1 has the
contract.  :meth:`ProcessPool.start` forks a *zygote* before the caller
opens a socket or starts a thread, and the zygote forks every child,
the first ones and each replacement, so all start from the same state.
Each child owns one socketpair with the owner, which is also its
sentinel: children share no queue or lock, and the owner runs no thread
of its own.
"""

from __future__ import annotations

import logging
import os
import pickle
import select
import signal
import socket
import struct
import sys
import threading
import time
import traceback
from collections import Counter
from contextlib import suppress
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.backoff import backoff_delay
from repro.common.env import env_number
from repro.common.errors import WorkerTimeoutError
from repro.resilience import faults

logger = logging.getLogger("repro.resilience.procpool")

#: How often the zygote and every child check that their parent lives.
PARENT_POLL_S = 0.1

_HEADER = struct.Struct("!Q")
#: Zygote request: the dead child to reap first (0: none; -1: stop).
_REQUEST = struct.Struct("!q")
#: Zygote reply: the new child's pid (-errno: fork failed) and the exit
#: code of the reaped child; the new child's socket rides along.
_REPLY = struct.Struct("!qq")


def default_task_timeout() -> float:
    """Per-attempt deadline in seconds (``REPRO_TASK_TIMEOUT``, default 600)."""
    return env_number("REPRO_TASK_TIMEOUT", 600.0, 0.1, float)


def default_max_retries() -> int:
    """Extra pool attempts per task (``REPRO_MAX_RETRIES``, default 2)."""
    return env_number("REPRO_MAX_RETRIES", 2, 0)


class Child:
    """A child as its owner sees it; ``task`` is the ``(name, attempt)``
    of its latest dispatch."""

    __slots__ = ("pid", "sock", "task", "deadline")

    def __init__(self, pid: int, sock: socket.socket):
        self.pid, self.sock = pid, sock
        self.task: Tuple[str, int] = ("", 0)
        self.deadline = 0.0


class ProcessPool:
    """``processes`` children running ``fn`` (inherited at fork, so only
    payloads and values pickle); ``timeout`` and ``max_retries`` default
    to ``REPRO_TASK_TIMEOUT`` and ``REPRO_MAX_RETRIES``."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        processes: int,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        seed: int = 0,
    ):
        self.fn = fn
        self.processes = max(1, int(processes))
        self.timeout = default_task_timeout() if timeout is None else timeout
        self.max_retries = (
            default_max_retries() if max_retries is None else max_retries
        )
        self.seed = seed
        #: Children lost with no pooled success between them before the
        #: pool is poisoned and every task runs in-process.
        self.poison_limit = max(4, 2 * self.processes * (self.max_retries + 1))
        self.poisoned = False
        self.stats: Counter = Counter()
        self._zygote = 0
        self._control: Optional[socket.socket] = None
        self._children: Dict[int, Child] = {}
        self._idle: List[Child] = []
        self._losses = 0
        self._lock = threading.Lock()
        self._idle_ready = threading.Condition(self._lock)

    def start(self) -> None:
        """Fork the zygote and, through it, every child (or raise
        :class:`OSError`)."""
        owner = os.getpid()
        ours, theirs = socket.socketpair()
        _flush_std_streams()  # or the children would write it again
        pid = os.fork()
        if pid == 0:
            try:
                ours.close()
                _zygote_main(theirs, self.fn, owner)
            finally:
                os._exit(1)
        theirs.close()
        with self._lock:
            self._zygote, self._control = pid, ours
            try:
                for _ in range(self.processes):
                    self._idle.append(self._spawn(0)[0])
            except OSError:
                self._stop()
                raise

    def shutdown(self) -> None:
        """Kill every child, busy or idle, and the zygote; reap them."""
        with self._lock:
            self._stop()

    @property
    def pids(self) -> List[int]:
        with self._lock:
            return sorted(self._children)

    def health(self) -> Dict[str, Any]:
        """Process and task counts, after replacing idle children found
        dead."""
        with self._lock:
            self._replace_dead_idle()
            state = "poisoned" if self.poisoned else "forked"
            return dict(
                processes=self.processes,
                state="stopped" if self._control is None else state,
                pids=sorted(self._children),
                **{key: self.stats[key] for key in (
                    "replaced", "timeouts", "pooled", "inline",
                )},
            )

    def run(self, payload: Any, name: str = "task") -> Any:
        """Run one task to its value (or its exception), blocking.

        A lost attempt (the child died or missed its deadline) is logged
        and retried on a replacement after a backoff keyed by ``name``;
        once the retries are spent, or the pool is poisoned or stopped,
        the task runs in this process.  The task's own exception is
        re-raised and never retried.
        """
        attempt = 0
        while True:
            child = self._acquire()
            if child is None:
                break
            self._dispatch(child, name, payload, attempt)
            settled = None
            while settled is None:
                settled = self._poll(child)
            status, value = settled
            if status == "ok":
                return value
            if status == "error":
                raise value[0]
            logger.warning("task %s attempt %d lost: %s",
                           name, attempt + 1, value)
            delay = self._retry_delay(name, attempt)
            if delay is None:
                break
            time.sleep(delay)
            attempt += 1
        with self._lock:
            self.stats["inline"] += 1
        return self.fn(payload)

    def _acquire(self) -> Optional[Child]:
        """An idle child, waiting for one; ``None`` if the pool is
        poisoned or stopped."""
        with self._lock:
            while True:
                self._replace_dead_idle()
                if self.poisoned or self._control is None:
                    return None
                if self._idle:
                    return self._idle.pop()
                self._idle_ready.wait()

    def _dispatch(self, child: Child, name: str, payload: Any,
                  attempt: int) -> None:
        """Send a task to an acquired child; :meth:`_poll` settles it."""
        child.task = (name, attempt)
        child.deadline = time.monotonic() + self.timeout
        with suppress(OSError):  # a dead child settles as lost
            _send(child.sock, (attempt, payload))

    def _poll(self, child: Child) -> Optional[Tuple[str, Any]]:
        """``(status, value)`` once the busy ``child`` settles, ``None``
        while it runs within its deadline: ``"ok"`` and the value,
        ``"error"`` and ``(exception, detail)``, or ``"lost"`` and a
        detail line (the child died or missed its deadline, and was
        killed and replaced)."""
        ready = _readable([child], max(0.0, child.deadline - time.monotonic()))
        if not ready and time.monotonic() < child.deadline:
            return None
        reply = _recv(child.sock) if ready else None
        with self._lock:
            if reply is not None:
                if reply[0] == "ok":
                    self.stats["pooled"] += 1
                    self._losses = 0
                self._idle.append(child)
                self._idle_ready.notify()
                return reply
            if ready:
                detail = "worker died without a result (exit code %r)"
                return "lost", detail % (self._replace(child),)
            self.stats["timeouts"] += 1
            self._replace(child)
            name, attempt = child.task
            return "lost", repr(WorkerTimeoutError(
                name, attempt + 1,
                "deadline of %.1fs exceeded" % self.timeout,
            ))

    def _retry_delay(self, name: str, attempt: int) -> Optional[float]:
        """Backoff before retrying a lost ``attempt``; ``None`` when the
        task must run in-process instead."""
        if self.poisoned or attempt >= self.max_retries:
            return None
        return backoff_delay(name, attempt, self.seed)

    # -- call with the lock held -----------------------------------------------

    def _replace(self, child: Child) -> Optional[int]:
        """Kill a lost child and fork its replacement; its exit code."""
        with suppress(OSError):
            os.kill(child.pid, signal.SIGKILL)
        child.sock.close()
        if self._children.pop(child.pid, None) is None:
            return None  # the pool was stopped under it
        self._losses += 1
        self.poisoned = self.poisoned or self._losses >= self.poison_limit
        try:
            fresh, code = self._spawn(child.pid)
        except OSError:
            self.poisoned = True
            self._idle_ready.notify_all()
            return None
        self.stats["replaced"] += 1
        self._idle.append(fresh)
        self._idle_ready.notify()
        return code

    def _replace_dead_idle(self) -> None:
        # A live idle child never writes, so a readable one is gone.
        for pid in _readable(self._idle, 0.0) if self._idle else ():
            self._idle.remove(self._children[pid])
            self._replace(self._children[pid])

    def _spawn(self, reap: int) -> Tuple[Child, int]:
        """Have the zygote fork a child, after reaping the child ``reap``."""
        if self._control is None:
            raise OSError("process pool is stopped")
        self._control.sendall(_REQUEST.pack(reap))
        data, fds, _flags, _addr = socket.recv_fds(
            self._control, _REPLY.size, 1
        )
        if len(data) != _REPLY.size or not fds:
            raise OSError("process pool zygote could not fork")
        pid, code = _REPLY.unpack(data)
        child = self._children[pid] = Child(pid, socket.socket(fileno=fds[0]))
        return child, code

    def _stop(self) -> None:
        if self._control is None:
            return
        with suppress(OSError):
            self._control.sendall(_REQUEST.pack(-1))
        for sock in [self._control] + [
            child.sock for child in self._children.values()
        ]:
            sock.close()
        self._control = None
        self._children.clear()
        self._idle.clear()
        self._idle_ready.notify_all()
        with suppress(ChildProcessError):
            os.waitpid(self._zygote, 0)


def _send(sock: socket.socket, message: Any) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv(sock: socket.socket) -> Any:
    """The next message on ``sock``; ``None`` once its peer is gone."""
    try:
        size = _HEADER.unpack(_read(sock, _HEADER.size))[0]
        return pickle.loads(_read(sock, size))
    except (OSError, EOFError):
        return None


def _read(sock: socket.socket, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return bytes(buf)


def _readable(children: List[Child], timeout: float) -> Set[int]:
    """Pids of the children whose sockets are readable or closed (a
    shutdown may close the socket of a child another thread waits on)."""
    closed = {child.pid for child in children if child.sock.fileno() < 0}
    if closed:
        return closed
    poller = select.poll()
    by_fd = {child.sock.fileno(): child.pid for child in children}
    for fd in by_fd:
        poller.register(fd, select.POLLIN)
    return {by_fd[fd] for fd, _ in poller.poll(int(timeout * 1000 + 0.999))}


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError, ValueError):
            stream.flush()


def _zygote_main(control: socket.socket, fn, owner: int) -> None:
    """Fork a child per request until told to stop or orphaned; then
    kill and reap every child."""
    # The owner drains on SIGINT; SIGTERM must not run its handler here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    children: Set[int] = set()
    poller = select.poll()
    poller.register(control, select.POLLIN)
    while os.getppid() == owner:
        if not poller.poll(int(PARENT_POLL_S * 1000)):
            continue
        try:
            (reap,) = _REQUEST.unpack(_read(control, _REQUEST.size))
        except (OSError, EOFError):
            break
        if reap < 0:
            break
        code = 0
        if reap in children:
            children.discard(reap)
            code = os.waitstatus_to_exitcode(os.waitpid(reap, 0)[1])
        ours, theirs = socket.socketpair()
        try:
            pid = os.fork()
        except OSError as exc:
            pid = -(exc.errno or 1)
        if pid == 0:
            try:
                control.close()
                ours.close()
                _serve_tasks(theirs, fn, os.getppid())
            finally:
                os._exit(1)
        theirs.close()
        if pid > 0:
            children.add(pid)
            socket.send_fds(control, [_REPLY.pack(pid, code)], [ours.fileno()])
        else:
            control.sendall(_REPLY.pack(pid, code))
        ours.close()
    for pid in children:
        with suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    for pid in children:
        os.waitpid(pid, 0)
    os._exit(0)


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(0)


def _serve_tasks(sock: socket.socket, fn, parent: int) -> None:
    """Run tasks from ``sock`` until the owner closes it."""
    threading.Thread(
        target=_exit_with_parent, args=(parent,), daemon=True,
    ).start()
    while True:
        task = _recv(sock)
        if task is None:
            os._exit(0)
        attempt, payload = task
        faults.worker_entry(attempt)
        try:
            data = pickle.dumps(("ok", fn(payload)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            detail = "%s: %s\n%s" % (
                type(exc).__name__, exc, traceback.format_exc(),
            )
            try:  # the owner must be able to rebuild the exception
                data = pickle.dumps(("error", (exc, detail)))
                pickle.loads(data)
            except Exception:  # noqa: BLE001 - described instead
                data = pickle.dumps(("error", (
                    RuntimeError(detail.partition("\n")[0]), detail,
                )))
        _flush_std_streams()
        try:
            sock.sendall(_HEADER.pack(len(data)) + data)
        except OSError:
            os._exit(0)
