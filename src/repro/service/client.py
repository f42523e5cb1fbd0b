"""Synchronous client for the campaign service.

Deliberately stdlib-only and connection-per-request: every call opens a
fresh socket, sends one JSON line, and reads the response line(s).
That makes the client trivially robust to server restarts -- the exact
scenario the service is built around -- at a per-request cost that is
noise next to a campaign.  Responses are returned as plain dicts
(``{"ok": bool, ...}``); nothing raises on an application-level error
except :class:`ServiceUnavailable` when the socket itself cannot be
reached (so callers can implement retry-after loops around rejections
without exception plumbing).
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.common.backoff import backoff_delay
from repro.service import protocol

class ServiceUnavailable(ConnectionError):
    """The server socket could not be reached (down or still starting)."""


class ServiceClient:
    """Talk to one campaign server over its unix or TCP socket.

    ``connect_timeout`` bounds connection-level retry: while it is
    positive, ECONNREFUSED/reset during connect is retried with capped
    exponential backoff + deterministic jitter until the budget is
    spent; at 0 (the default) a failed connect raises
    :class:`ServiceUnavailable` immediately, preserving fail-fast
    semantics for health polls and liveness probes.
    """

    def __init__(
        self,
        socket_path=None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 60.0,
        connect_timeout: float = 0.0,
    ):
        if socket_path is None and host is None:
            raise ValueError("need a socket_path or a host/port")
        self.socket_path = Path(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = max(0.0, connect_timeout)

    # -- transport ------------------------------------------------------------

    def _endpoint(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return "%s:%s" % (self.host, self.port)

    def _connect_once(self) -> socket.socket:
        """One connection attempt; raises plain :class:`OSError`."""
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(str(self.socket_path))
            except OSError:
                sock.close()
                raise
            return sock
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self.connect_timeout
        attempt = 0
        while True:
            try:
                return self._connect_once()
            except OSError as exc:
                now = time.monotonic()
                if self.connect_timeout <= 0 or now >= deadline:
                    raise ServiceUnavailable(
                        "campaign server unreachable: %s" % exc
                    )
                delay = backoff_delay(self._endpoint(), attempt)
                time.sleep(min(delay, max(0.001, deadline - now)))
                attempt += 1

    def _roundtrip(self, message: Dict) -> Dict:
        for response in self._stream(message):
            return response
        raise ServiceUnavailable("server closed the connection mid-request")

    def _stream(self, message: Dict) -> Iterator[Dict]:
        # A server that dies after accepting surfaces as a reset/broken
        # pipe on the established socket, not as a connect failure --
        # wrap those too so callers see one retryable exception type.
        sock = self._connect()
        try:
            try:
                sock.sendall(protocol.encode_message(message))
                fh = sock.makefile("rb")
            except OSError as exc:
                raise ServiceUnavailable(
                    "connection lost mid-request: %s" % exc
                )
            with fh:
                while True:
                    try:
                        line = fh.readline()
                    except OSError as exc:
                        raise ServiceUnavailable(
                            "connection lost mid-stream: %s" % exc
                        )
                    if not line:
                        return
                    yield protocol.decode_message(line)
        finally:
            sock.close()

    # -- operations -----------------------------------------------------------

    def call(self, message: Dict) -> Dict:
        """One raw request/response round trip (worker and tooling use)."""
        return self._roundtrip(message)

    def submit(self, workload: str, **fields) -> Dict:
        message = {"op": "submit", "workload": workload}
        message.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        return self._roundtrip(message)

    def status(self, job: str) -> Dict:
        return self._roundtrip({"op": "status", "job": job})

    def result(
        self, job: str, timeout_s: Optional[float] = None
    ) -> Dict:
        """Block until the job terminalizes; its final result line."""
        message: Dict = {"op": "result", "job": job}
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        return self._roundtrip(message)

    def stream_result(
        self, job: str, timeout_s: Optional[float] = None
    ) -> Iterator[Dict]:
        """Yield per-run event lines, then the final result line."""
        message: Dict = {"op": "result", "job": job, "stream": True}
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        for response in self._stream(message):
            yield response
            if response.get("final"):
                return

    def cancel(self, job: str) -> Dict:
        return self._roundtrip({"op": "cancel", "job": job})

    def health(self) -> Dict:
        return self._roundtrip({"op": "health"})

    def drain(self) -> Dict:
        return self._roundtrip({"op": "drain"})

    # -- conveniences ---------------------------------------------------------

    def wait_ready(
        self, timeout: float = 30.0, interval: float = 0.05
    ) -> Dict:
        """Poll ``health`` until the server answers (startup barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceUnavailable:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    def submit_with_retry(
        self,
        workload: str,
        attempts: int = 20,
        **fields,
    ) -> Dict:
        """Submit, honoring ``retry_after`` on retryable rejections.

        Connection-level failures (ECONNREFUSED, resets) are retried at
        the transport layer with capped exponential backoff and
        deterministic jitter, bounded by the client's
        ``connect_timeout`` budget; once that budget is spent
        :class:`ServiceUnavailable` propagates.
        """
        last: Dict = {}
        for _ in range(attempts):
            last = self.submit(workload, **fields)
            if last.get("ok") or last.get("error") not in protocol.RETRYABLE:
                return last
            time.sleep(float(last.get("retry_after", 0.05)))
        return last
