"""Real-socket transport and server.

The integration path: the same :class:`~repro.net.transport.BatServerApp`
objects served behind an actual TCP listener, driven by the same BQT
workflows through :class:`TcpTransport`.  This proves the HTTP message
model round-trips over a genuine network boundary.

Render delays are honored with real (scaled) sleeps — a ``time_scale`` of
0.001 turns a simulated 40-second page render into a 40 ms pause, keeping
integration tests fast while preserving ordering behaviour.
"""

from __future__ import annotations

import threading
import time

from ..errors import TransportError
from .clock import Clock
from .conn import KeepAlivePool, ThreadedServer
from .faults import FaultProfile, resolve_fault_profile
from .http import HttpRequest, HttpResponse
from .transport import RENDER_HEADER, BatServerApp, Transport

__all__ = ["BatHost", "TcpBatServer", "TcpTransport"]


class BatHost:
    """One BAT application behind a socket: the app half of both BAT servers.

    Requests are numbered on one global virtual-time counter, so a BAT
    sees the same ``now`` sequence whichever shell serves it.
    """

    def __init__(self, app: BatServerApp, time_scale: float) -> None:
        self.app = app
        self.time_scale = time_scale
        self._lock = threading.Lock()
        self._virtual_now = 0.0

    def handle(self, request: HttpRequest, peer: str) -> tuple[HttpResponse, float]:
        """The app's response, and the render pause to hold it for (s)."""
        # The client's residential exit IP travels in a header on the TCP
        # path (all connections originate from localhost).
        client_ip = request.header("X-Forwarded-For") or peer
        # BatApplication instances are single-threaded objects (session
        # table, counters, delay RNG), so handle() is serialized; the
        # render pause is where parallel clients overlap.
        with self._lock:
            self._virtual_now += 1.0
            response = self.app.handle(request, client_ip, self._virtual_now)
        render_value = response.header(RENDER_HEADER)
        response.headers.pop(RENDER_HEADER, None)
        if render_value and self.time_scale > 0:
            return response, float(render_value) * self.time_scale
        return response, 0.0

    @staticmethod
    def reject(error: Exception) -> HttpResponse:
        return HttpResponse.html(
            f"<html><body>bad request: {error}</body></html>", 400
        )


class TcpBatServer(ThreadedServer):
    """A threaded TCP server hosting one BAT application.

    Usage::

        server = TcpBatServer(app, time_scale=0.001)
        server.start()
        ... TcpTransport({app.hostname: server.address}) ...
        server.stop()
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

    def respond(self, request: HttpRequest, peer: str) -> HttpResponse:
        response, pause = self._bat.handle(request, peer)
        if pause:
            time.sleep(pause)
        return response


class TcpTransport(Transport):
    """Client transport speaking real HTTP/1.1 over TCP.

    By default every ``send`` opens a fresh connection (the original
    one-shot behaviour).  With ``keep_alive=True`` each host's
    :class:`~repro.net.conn.KeepAlivePool` parks idle connections and
    reuses the warmest, which removes the TCP setup cost from every
    request after a host's first.  Responses are identical either way
    (regression-tested); only wall-clock changes.

    The pools are thread-safe, so threads may share one transport.
    """

    def __init__(
        self,
        routes: dict[str, tuple[str, int]],
        timeout: float = 10.0,
        keep_alive: bool = False,
        max_idle_per_host: int = 8,
        fault_profile: FaultProfile | str | None = None,
        fault_retries: int = 8,
    ) -> None:
        self._routes = dict(routes)
        self._timeout = timeout
        self.keep_alive = keep_alive
        self.max_idle_per_host = max_idle_per_host
        self._fault_profile = resolve_fault_profile(fault_profile)
        self.fault_retries = fault_retries
        self._pools: dict[str, KeepAlivePool] = {}
        self._lock = threading.Lock()

    def knows_host(self, host: str) -> bool:
        return host in self._routes

    def close(self) -> None:
        """Close every pooled idle connection."""
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _pool(self, host: str) -> KeepAlivePool:
        try:
            address = self._routes[host]
        except KeyError:
            raise TransportError(f"no route to host {host!r}") from None
        with self._lock:
            pool = self._pools.get(host)
            if pool is None:
                pool = self._pools[host] = KeepAlivePool(
                    address,
                    self._timeout,
                    self._fault_profile,
                    fault_label=(host,),
                    fault_retries=self.fault_retries,
                    max_idle=self.max_idle_per_host,
                )
            return pool

    def send(
        self,
        request: HttpRequest,
        host: str,
        client_ip: str,
        clock: Clock,
    ) -> HttpResponse:
        pool = self._pool(host)
        request.set_header("X-Forwarded-For", client_ip)
        if self.keep_alive:
            request.set_header("Connection", "keep-alive")
        started = clock.now()
        response = pool.request(request.to_bytes(host))
        # RealClock advances by itself; VirtualClock callers need a nudge so
        # elapsed-time accounting works on either clock type.
        if clock.now() == started:
            clock.sleep(1e-6)
        return response
