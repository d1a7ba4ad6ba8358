"""One connection layer: the server shell and the client pool.

Every socket endpoint in :mod:`repro` speaks the same Content-Length-framed
HTTP/1.1 (:func:`~repro.net.http.frame_http_message`).  A server is an app
on :class:`ThreadedServer`, which serves each connection on its own thread
and owns the listener, the accept loop, the live-connection set, the
server-side fault seam, the keep-alive loop and a prompt ``stop()``.  The
app is the subclass: :meth:`respond` answers one parsed request, and
:meth:`reject` picks the reply, if any, to bytes that could not be framed
or parsed (or to a :class:`ValueError` from :meth:`respond`), after which
the connection closes.  It also closes after a response whose
``Connection`` header is not ``keep-alive``; an app may pin that header,
otherwise the shell echoes the request's choice.

Every client sends through a :class:`KeepAlivePool`, which holds the
keep-alive sockets to one address and applies the one resend rule.
"""

from __future__ import annotations

import random
import socket
import threading

from ..errors import TransportError
from .faults import FaultProfile, FaultySocket, resolve_fault_profile
from .http import HttpRequest, HttpResponse, frame_http_message

__all__ = [
    "KeepAlivePool",
    "ThreadedServer",
    "read_http_message",
    "shutdown_and_close",
]

_RECV_CHUNK = 65536


def shutdown_and_close(sock: socket.socket) -> None:
    """Release a socket even if another thread is blocked on it.

    ``close()`` alone does not wake a thread parked in ``accept()`` or
    ``recv()`` — the blocked syscall holds a kernel reference, so the
    socket (and its port) stays alive until the peer hangs up.
    ``shutdown()`` first interrupts the blocked call immediately.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def read_http_message(
    conn: socket.socket, buffer: bytes = b""
) -> tuple[bytes, bytes]:
    """Read one Content-Length-framed HTTP message from a socket.

    ``buffer`` carries bytes already read past the previous message on
    this connection (keep-alive/pipelining).  Returns ``(message,
    remainder)``; over-read bytes are returned — never discarded — so the
    next message on the connection starts intact.  A clean EOF with no
    buffered bytes returns ``(b"", b"")``; an EOF mid-message returns the
    partial bytes for the caller's parser to reject.
    """
    while True:
        framed = frame_http_message(buffer)
        if framed is not None:
            return framed
        chunk = conn.recv(_RECV_CHUNK)
        if not chunk:
            return buffer, b""
        buffer += chunk


def _keep_alive(request: HttpRequest, response: HttpResponse) -> bool:
    """Settle the response's ``Connection`` header; True keeps the socket."""
    if response.header("Connection") is None:
        wanted = (request.header("Connection") or "").lower() == "keep-alive"
        response.set_header("Connection", "keep-alive" if wanted else "close")
    return (response.header("Connection") or "").lower() == "keep-alive"


# ----------------------------------------------------------------------
# Server shell
# ----------------------------------------------------------------------
class ThreadedServer:
    """A TCP listener serving each connection on its own thread.

    The listener binds at construction, so :attr:`address` is known
    before :meth:`start`.  Subclasses implement :meth:`respond`, which
    may block: it runs on the connection's thread.

    ``label`` names the server's thread and keys its fault streams:
    connection ``n`` draws from ``profile.injector("server", label, n)``.
    """

    def __init__(
        self,
        label: str,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_profile: FaultProfile | str | None = None,
    ) -> None:
        self.label = label
        self._fault_profile = resolve_fault_profile(fault_profile)
        self._conn_count = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        # A backlog as deep as the kernel allows: when a burst of connects
        # overflows the accept queue, the kernel drops the SYNs and each
        # dropped client waits out a one-second SYN retransmit.
        self._listener.listen(socket.SOMAXCONN)
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def respond(self, request: HttpRequest, peer: str) -> HttpResponse:
        """Answer one request from ``peer`` (the client's IP)."""
        raise NotImplementedError

    def reject(self, error: Exception) -> HttpResponse | None:
        """The reply to a malformed request; None closes without one."""
        return None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.label}-server", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        shutdown_and_close(self._listener)
        # Keep-alive connections park their handler thread in recv();
        # releasing them makes stop() prompt and frees the port for an
        # immediate rebind.  A client holding a pooled socket sees a clean
        # EOF and resends on a fresh connection.
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            shutdown_and_close(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, peer), daemon=True
            )
            thread.start()
            # Prune finished handler threads so a long-lived server does
            # not keep one dead Thread object per connection ever accepted.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket, peer: tuple) -> None:
        profile = self._fault_profile
        with self._lock:
            self._conns.add(conn)
            self._conn_count += 1
            count = self._conn_count
        sock = conn
        if profile is not None and profile.server.any:
            sock = FaultySocket(conn, profile.injector("server", self.label, count))
        buffer = b""
        try:
            with conn:
                while True:
                    try:
                        raw, buffer = read_http_message(sock, buffer)
                        if not raw:
                            return
                        request = HttpRequest.from_bytes(raw)
                        response = self.respond(request, str(peer[0]))
                    except (TransportError, ValueError) as exc:
                        reply = self.reject(exc)
                        if reply is not None:
                            sock.sendall(reply.to_bytes())
                        return
                    keep_alive = _keep_alive(request, response)
                    sock.sendall(response.to_bytes())
                    if not keep_alive:
                        return
        except OSError:
            return
        finally:
            with self._lock:
                self._conns.discard(conn)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _Conn:
    """One client socket plus the bytes read past its last response."""

    __slots__ = ("sock", "buffer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def roundtrip(self, payload: bytes) -> bytes | None:
        """Send one request and read its framed response.

        None means the request provably never reached the server's
        handler — a send-phase error, or a close with zero response bytes
        (a server always answers, even with a 400, before closing).
        """
        try:
            self.sock.sendall(payload)
        except OSError:
            return None
        buffer = self.buffer
        while True:
            framed = frame_http_message(buffer)
            if framed is not None:
                raw, self.buffer = framed
                return raw
            try:
                chunk = self.sock.recv(_RECV_CHUNK)
            except TimeoutError as exc:
                raise TransportError(
                    f"timed out waiting for a response: {exc}"
                ) from exc
            except OSError as exc:
                if buffer:
                    raise TransportError(
                        f"connection lost mid-response: {exc}"
                    ) from exc
                return None
            if not chunk:
                if buffer:
                    raise TransportError(
                        "truncated response (connection closed mid-message)"
                    )
                return None
            buffer += chunk


class _Unsent(TransportError):
    """A request that provably never reached the server's handler."""


class KeepAlivePool:
    """Sync keep-alive connections to one address, and the resend rule.

    :meth:`request` takes the most recently parked socket (LIFO: the
    warmest) or dials a new one, sends, reads one framed response, and
    parks the socket again when the response says ``keep-alive``.

    The resend rule: a request is resent on a fresh connection only when
    it provably never reached the server's handler — a send-phase error,
    or a close with zero response bytes.  A reused socket gets one such
    resend (its server may have gone away while it was parked); an active
    fault profile widens the budget to ``fault_retries``, because
    injected loss makes unsent requests routine.  Resends pause on
    :func:`repro.core.retry.retry_with_backoff`.  A timeout, or a response
    torn after bytes arrived, raises :class:`TransportError` instead: the
    server may have handled the request, and resending would do it twice.

    Args:
        address: ``(host, port)`` to dial.
        timeout: Socket timeout for the dial and every read, seconds.
        fault_profile: An already-resolved profile injecting faults into
            this pool's sends, or None for none.  Dial ``n`` draws from
            ``profile.injector("client", *fault_label, n)``.
        fault_label: Labels keying this pool's fault streams.
        fault_retries: The resend budget under a fault profile.
        max_idle: How many idle sockets to park.

    Thread-safe.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float,
        fault_profile: FaultProfile | None = None,
        fault_label: tuple = (),
        fault_retries: int = 8,
        max_idle: int = 8,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.timeout = timeout
        self.fault_retries = fault_retries
        self.max_idle = max_idle
        self._fault_profile = fault_profile
        self._fault_label = fault_label
        self._dials = 0
        self._idle: list[_Conn] = []
        self._lock = threading.Lock()
        # Jitter for resend pauses, seeded so runs replay identically
        # (pause lengths never feed the fault streams).
        self._rng = random.Random(self.address[1] or 1)

    def close(self) -> None:
        """Close every parked socket."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def request(self, payload: bytes) -> HttpResponse:
        """Send one serialized request; returns its parsed response."""
        # Imported here: repro.core layers above repro.net.
        from ..core.retry import BackoffPolicy, retry_with_backoff

        with self._lock:
            conn = self._idle.pop() if self._idle else None
        budget = 1 if conn is not None else 0
        if self._fault_profile is not None:
            budget = max(budget, self.fault_retries)

        def attempt() -> bytes:
            nonlocal conn
            if conn is None:
                conn = self._dial()
            raw = conn.roundtrip(payload)
            if raw is None:
                conn.close()
                conn = None
                raise _Unsent(f"empty response from {self._where}")
            return raw

        try:
            raw = retry_with_backoff(
                attempt,
                attempts=budget + 1,
                policy=BackoffPolicy(
                    base_delay=0.01, multiplier=2.0, max_delay=0.25
                ),
                retryable=(_Unsent,),
                rng=self._rng,
            )
            response = HttpResponse.from_bytes(raw)
        except TransportError:
            if conn is not None:
                conn.close()
            raise
        if (response.header("Connection") or "").lower() == "keep-alive":
            with self._lock:
                if len(self._idle) < self.max_idle:
                    self._idle.append(conn)
                    return response
        conn.close()
        return response

    @property
    def _where(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _dial(self) -> _Conn:
        try:
            sock = socket.create_connection(self.address, timeout=self.timeout)
        except OSError as exc:
            raise TransportError(
                f"connection to {self._where} failed: {exc}"
            ) from exc
        profile = self._fault_profile
        if profile is not None and profile.client.any:
            with self._lock:
                self._dials += 1
                dials = self._dials
            sock = FaultySocket(
                sock, profile.injector("client", *self._fault_label, dials)
            )
        return _Conn(sock)
