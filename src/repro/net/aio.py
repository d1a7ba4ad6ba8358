"""Asyncio transport and server: the event-loop query path.

The thread-per-request TCP path burns one OS thread and one fresh socket
per in-flight query; both costs are pure overhead when thousands of BQT
sessions spend their time waiting on BAT page renders.  This module
removes them:

* :class:`AsyncTcpTransport` — the client side as coroutines, with a
  per-host **keep-alive connection pool** (bounded, LIFO reuse).  A
  request parks its connection after the response instead of closing it,
  so a worker's whole query session rides one socket.  Framing is the
  shared sans-I/O :func:`~repro.net.http.frame_http_message`, which
  carries over-read bytes into the next message instead of dropping them
  — the property that makes keep-alive (and pipelined responses) safe.
* :class:`AsyncTcpBatServer` — the same :class:`BatServerApp` objects
  on the asyncio server shell (:class:`~repro.net.conn.AsyncServer`): one
  event loop replaces the thread-per-connection accept loop, and render
  delays are honored with ``await asyncio.sleep`` so a sleeping request
  costs no thread.

Both ends speak byte-identical HTTP/1.1 to their threaded counterparts in
:mod:`repro.net.tcp`; sync clients interoperate with the async server and
vice versa (integration-tested).
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod

from ..errors import TransportError
from .clock import Clock
from .conn import AsyncServer
from .faults import FaultInjector, FaultProfile, faulty_write, resolve_fault_profile
from .http import HttpRequest, HttpResponse, frame_http_message
from .tcp import BatHost
from .transport import BatServerApp

__all__ = ["AsyncTransport", "AsyncTcpTransport", "AsyncTcpBatServer"]

_RECV_CHUNK = 65536


class AsyncTransport(ABC):
    """Coroutine flavour of :class:`~repro.net.transport.Transport`.

    Same contract — deliver a request, account the full round trip on the
    caller's clock — but ``send`` is awaitable, so hundreds of in-flight
    queries share one event loop instead of holding one thread each.
    """

    @abstractmethod
    async def send(
        self,
        request: HttpRequest,
        host: str,
        client_ip: str,
        clock: Clock,
    ) -> HttpResponse:
        """Deliver ``request`` to ``host`` from ``client_ip``."""

    @abstractmethod
    def knows_host(self, host: str) -> bool:
        """Whether this transport can route to ``host``."""


class _AioConn:
    """One pooled connection: stream pair plus its over-read remainder."""

    __slots__ = ("reader", "writer", "buffer", "injector")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        injector: FaultInjector | None = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.buffer = b""
        self.injector = injector

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass


class AsyncTcpTransport(AsyncTransport):
    """HTTP/1.1 over asyncio streams with per-host keep-alive pooling.

    Args:
        routes: hostname -> (ip, port) listener addresses.
        timeout: Per-I/O-operation timeout in seconds.
        max_connections_per_host: Bound on *concurrent* connections to one
            host (a semaphore; excess senders queue on the loop).
        max_idle_per_host: Bound on *parked* idle connections per host;
            reuse is LIFO so the warmest socket is handed out first.

    The pool belongs to one event loop.  A transport that outlives a loop
    (the fleet calls ``asyncio.run`` per campaign) detects the new loop on
    first use and starts with a cold pool — parked sockets from a dead
    loop are discarded, never reused.
    """

    def __init__(
        self,
        routes: dict[str, tuple[str, int]],
        timeout: float = 10.0,
        max_connections_per_host: int = 64,
        max_idle_per_host: int = 64,
        fault_profile: FaultProfile | str | None = None,
        fault_retries: int = 8,
    ) -> None:
        self._routes = dict(routes)
        self._timeout = timeout
        self.max_connections_per_host = max_connections_per_host
        self.max_idle_per_host = max_idle_per_host
        self._fault_profile = resolve_fault_profile(fault_profile)
        self.fault_retries = fault_retries
        self._dial_count = 0
        self._idle: dict[str, list[_AioConn]] = {}
        self._gates: dict[str, asyncio.Semaphore] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        # Diagnostics: how many sends were served off a parked connection
        # vs. a fresh dial (the keep-alive win, observable in tests).
        self.connections_opened = 0
        self.connections_reused = 0

    def knows_host(self, host: str) -> bool:
        return host in self._routes

    def add_route(self, host: str, address: tuple[str, int]) -> None:
        self._routes[host] = address

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def _ensure_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            for pool in self._idle.values():
                for conn in pool:
                    conn.close()
            self._idle = {}
            self._gates = {}
            self._loop = loop

    def _gate(self, host: str) -> asyncio.Semaphore:
        gate = self._gates.get(host)
        if gate is None:
            gate = asyncio.Semaphore(self.max_connections_per_host)
            self._gates[host] = gate
        return gate

    async def _dial(self, host: str, address: tuple[str, int]) -> _AioConn:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*address), self._timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise TransportError(f"connection to {host} failed: {exc}") from exc
        self.connections_opened += 1
        injector = None
        profile = self._fault_profile
        if profile is not None and profile.client.any:
            self._dial_count += 1
            injector = profile.injector("client", host, self._dial_count)
        return _AioConn(reader, writer, injector)

    async def _roundtrip(self, conn: _AioConn, payload: bytes) -> bytes | None:
        """Send one request and read its framed response.

        The sync pool's contract (:class:`~repro.net.conn.KeepAlivePool`):
        None only when the request provably never reached the server's
        handler (send-phase error, or EOF/reset with zero response bytes),
        which is safe to resend on a fresh connection.  Timeouts and
        truncation after response bytes arrived raise instead; resending
        then would double-mutate server state.
        """
        try:
            # A request torn away by a fault falls through to the read
            # loop, which sees EOF with zero response bytes: retryable.
            await faulty_write(conn.writer, payload, conn.injector)
        except OSError:
            return None
        buffer = conn.buffer
        while True:
            framed = frame_http_message(buffer)
            if framed is not None:
                raw, conn.buffer = framed
                return raw
            try:
                chunk = await asyncio.wait_for(
                    conn.reader.read(_RECV_CHUNK), self._timeout
                )
            except asyncio.TimeoutError as exc:
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

    async def close(self) -> None:
        """Close every parked idle connection."""
        pools, self._idle = self._idle, {}
        for pool in pools.values():
            for conn in pool:
                conn.close()

    # ------------------------------------------------------------------
    # Send
    # ------------------------------------------------------------------
    async def send(
        self,
        request: HttpRequest,
        host: str,
        client_ip: str,
        clock: Clock,
    ) -> HttpResponse:
        try:
            address = self._routes[host]
        except KeyError:
            raise TransportError(f"no route to host {host!r}") from None
        self._ensure_loop()
        request.set_header("X-Forwarded-For", client_ip)
        request.set_header("Connection", "keep-alive")
        payload = request.to_bytes(host)
        started = clock.now()

        async with self._gate(host):
            idle = self._idle.get(host)
            conn = idle.pop() if idle else None  # LIFO: warmest socket first
            # The sync pool's resend rule: one resend on a reused socket,
            # ``fault_retries`` under a fault profile.
            if conn is None:
                conn = await self._dial(host, address)
                retries = 0
            else:
                self.connections_reused += 1
                retries = 1
            if self._fault_profile is not None:
                retries = max(retries, self.fault_retries)
            try:
                raw = await self._roundtrip(conn, payload)
                while raw is None and retries > 0:
                    retries -= 1
                    conn.close()
                    conn = await self._dial(host, address)
                    raw = await self._roundtrip(conn, payload)
                if raw is None:
                    raise TransportError(f"empty response from {host}")
                response = HttpResponse.from_bytes(raw)
            except TransportError:
                conn.close()
                raise
            idle = self._idle.setdefault(host, [])
            if (
                response.header("Connection") or ""
            ).lower() == "keep-alive" and len(idle) < self.max_idle_per_host:
                idle.append(conn)
            else:
                conn.close()

        # RealClock advances by itself; VirtualClock callers need a nudge
        # so elapsed-time accounting works on either clock type.
        if clock.now() == started:
            clock.sleep(1e-6)
        return response


class AsyncTcpBatServer(AsyncServer):
    """One BAT application on the asyncio server shell.

    Drop-in replacement for :class:`~repro.net.tcp.TcpBatServer` — same
    ``start()``/``stop()``/context-manager surface, same framing, same
    per-request global virtual-time counter — but connections are served
    as coroutines on a single event loop (hosted on one daemon thread),
    and render delays sleep on the loop instead of blocking a thread.
    Keep-alive clients hold their connection across requests; one-shot
    ``Connection: close`` clients (the default sync transport) get the
    classic behaviour.
    """

    def __init__(
        self,
        app: BatServerApp,
        host: str = "127.0.0.1",
        port: int = 0,
        time_scale: float = 0.0,
        fault_profile: FaultProfile | str | None = None,
    ) -> None:
        super().__init__(app.hostname, host, port, fault_profile)
        self._bat = BatHost(app, time_scale)

    reject = staticmethod(BatHost.reject)

    @property
    def hostname(self) -> str:
        return self._bat.app.hostname

    async def respond(self, request: HttpRequest, peer: str) -> HttpResponse:
        response, pause = self._bat.handle(request, peer)
        if pause:
            await asyncio.sleep(pause)
        return response
