"""Length-framed JSON RPC over TCP: the coordinator/worker wire.

The distributed curation backend (:mod:`repro.exec.remote`) and the
``python -m repro.dataset worker`` serve loop speak this protocol.  It is
deliberately *not* a new wire format: messages are the same minimal
HTTP/1.1 messages as everything else in :mod:`repro.net`, split off the
socket by the one shared framing function
(:func:`repro.net.http.frame_http_message`) that already serves the BAT
client and server paths.  A call is::

    POST /rpc/<method> HTTP/1.1          ->   HTTP/1.1 200 OK
    Content-Type: application/json            Content-Type: application/json
    {...json payload...}                      {...json result...}

Error taxonomy — the split matters to the dispatcher:

* :class:`RpcError` (a :class:`~repro.errors.TransportError`): the
  *connection* failed — dial refused, socket dropped, response truncated.
  The remote caller cannot know whether the method ran; shard specs are
  idempotent pure functions, so the dispatcher re-queues the work on
  another worker.
* :class:`RpcBusyError` (a retryable :class:`RpcError`): the server
  *refused* the call at admission — its bounded in-flight queue
  (``max_inflight``) is full and it answered 503 + ``Retry-After``
  before running anything.  Provably not started, so resending is always
  safe; the hint tells the caller when.  The dispatcher re-queues the
  spec at the *back* of the queue and pauses the connection, instead of
  hammering an overloaded worker head-of-line.
* :class:`RpcRemoteError` (**not** a transport error): the connection is
  fine and the *handler* raised (or the method is unknown, or the
  payload malformed).  Deterministic — retrying elsewhere would fail
  identically — so the dispatcher propagates it to the caller instead of
  re-queueing.

Connections are keep-alive on both ends: the server is an app on the
threaded shell (:class:`~repro.net.conn.ThreadedServer`), and the client
keeps its socket across calls in a :class:`~repro.net.conn.KeepAlivePool`,
whose one resend rule every client shares — a request is resent
only when it provably never reached the server's handler.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Mapping

from ..errors import ConfigurationError, ReproError, TransportError
from .conn import KeepAlivePool, ThreadedServer
from .faults import FaultProfile, resolve_fault_profile
from .http import HttpRequest, HttpResponse

__all__ = [
    "RpcBusyError",
    "RpcClient",
    "RpcError",
    "RpcRemoteError",
    "RpcServer",
    "retry_after_hint",
]

#: Path prefix every RPC method is mounted under.
RPC_PREFIX = "/rpc/"


class RpcError(TransportError):
    """The RPC connection failed; the call may or may not have run."""


class RpcBusyError(RpcError):
    """The server refused the call at admission: its queue is full.

    Retryable by construction — a 503 busy reply is sent *before* the
    handler runs, so the call provably never started.  Distinct from the
    generic :class:`RpcError` so dispatchers back off (re-queue at the
    back, pause for :attr:`retry_after`) instead of treating a saturated
    worker like a dead one and hammering it from the queue front.

    Attributes:
        method: RPC method name that was refused.
        status: HTTP status of the refusal (503, or 429 when rate-limited).
        retry_after: Server's ``Retry-After`` hint, seconds (None when the
            reply carried none).  :func:`repro.core.retry.retry_with_backoff`
            floors its pause at this value.
    """

    def __init__(
        self,
        method: str,
        status: int,
        message: str,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(f"rpc {method!r} refused with {status}: {message}")
        self.method = method
        self.status = status
        self.retry_after = retry_after


class RpcRemoteError(ReproError):
    """The remote handler failed deterministically; do not retry.

    Attributes:
        method: RPC method name that failed.
        status: HTTP status the server answered with (404 unknown method,
            400 malformed payload, 500 handler exception).
    """

    def __init__(self, method: str, status: int, message: str) -> None:
        super().__init__(f"rpc {method!r} failed with {status}: {message}")
        self.method = method
        self.status = status


class RpcServer(ThreadedServer):
    """A threaded TCP server dispatching framed JSON calls to handlers.

    Args:
        handlers: ``{method name: callable(payload dict) -> result dict}``.
            Handlers run on the connection's thread; a server with N
            concurrent client connections runs up to N handlers at once,
            so handlers must be thread-safe (shard-spec execution is —
            every spec builds fresh per-shard state).
        host: Interface to bind (loopback by default).
        port: Port to bind (0 = let the OS pick; read :attr:`address`).
        max_inflight: Bounded admission queue: at most this many handler
            invocations run at once; excess calls are refused *before*
            dispatch with ``503`` + ``Retry-After`` (surfaced client-side
            as the retryable :class:`RpcBusyError`).  None (the default)
            keeps the historical unbounded behaviour.
        busy_retry_after: ``Retry-After`` hint on busy refusals, seconds.

    A request that cannot be framed or parsed gets no reply: the
    connection is dropped as garbage.

    Usage::

        server = RpcServer({"ping": lambda payload: {"ok": True}})
        server.start()
        ... RpcClient(server.address) ...
        server.stop()
    """

    def __init__(
        self,
        handlers: Mapping[str, Callable[[dict], dict]],
        host: str = "127.0.0.1",
        port: int = 0,
        fault_profile: FaultProfile | str | None = None,
        max_inflight: int | None = None,
        busy_retry_after: float = 0.1,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1: {max_inflight}"
            )
        super().__init__("rpc", host, port, fault_profile)
        self._handlers = dict(handlers)
        self.max_inflight = max_inflight
        self.busy_retry_after = float(busy_retry_after)
        self._inflight = (
            threading.BoundedSemaphore(max_inflight)
            if max_inflight is not None
            else None
        )
        self.busy_refusals = 0  # observability: how often admission said no

    def respond(self, request: HttpRequest, peer: str) -> HttpResponse:
        if not request.path.startswith(RPC_PREFIX):
            return _json_response(
                404, {"error": f"not an rpc path: {request.path!r}"}
            )
        method = request.path[len(RPC_PREFIX):]
        handler = self._handlers.get(method)
        if handler is None:
            return _json_response(404, {"error": f"unknown method {method!r}"})
        try:
            payload = json.loads(request.body or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return _json_response(400, {"error": f"malformed payload: {exc}"})
        if not isinstance(payload, dict):
            return _json_response(400, {"error": "payload must be an object"})
        if self._inflight is not None and not self._inflight.acquire(
            blocking=False
        ):
            # Refused *before* the handler runs: the caller knows the
            # call never started and may safely resend after the hint.
            self.busy_refusals += 1
            response = _json_response(
                503,
                {
                    "error": (
                        f"server busy: {self.max_inflight} calls in flight"
                    ),
                    "retry_after": self.busy_retry_after,
                },
            )
            response.set_header("Retry-After", f"{self.busy_retry_after:g}")
            return response
        try:
            result = handler(payload)
        except Exception as exc:  # noqa: BLE001 - serialized to the peer
            return _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            if self._inflight is not None:
                self._inflight.release()
        return _json_response(200, result if result is not None else {})


def _json_response(status: int, payload: dict) -> HttpResponse:
    response = HttpResponse(
        status=status, body=json.dumps(payload, separators=(",", ":")).encode()
    )
    response.set_header("Content-Type", "application/json")
    response.set_header("Connection", "keep-alive")
    return response


class RpcClient:
    """A keep-alive RPC client over one persistent connection.

    Not thread-safe: each dispatcher thread owns its own client (a
    connection maps one-to-one onto a worker-side handler thread, which
    is exactly how per-worker concurrency is expressed).

    Args:
        address: ``(host, port)`` of an :class:`RpcServer`.
        timeout: Socket timeout per call, seconds.  Calls that execute
            long-running shard specs should size this generously.
        fault_profile: Optional fault injection for this client's frames
            (falls back to ``REPRO_FAULT_PROFILE``; ``"off"`` pins it
            off).
        fault_retries: Resend budget for provably-unstarted requests when
            a fault profile is active (see
            :class:`~repro.net.conn.KeepAlivePool`).
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 600.0,
        fault_profile: FaultProfile | str | None = None,
        fault_retries: int = 8,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.timeout = timeout
        self.fault_retries = fault_retries
        # The pool's dial counter keys the fault streams, and outlives
        # close(): each reconnect draws a distinct fault sequence.
        self._pool = KeepAlivePool(
            self.address,
            timeout,
            resolve_fault_profile(fault_profile),
            fault_label=("rpc", self.address[1]),
            fault_retries=fault_retries,
        )

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def call(self, method: str, payload: dict | None = None) -> dict:
        """Invoke ``method`` with a JSON payload; returns the JSON result.

        Raises :class:`RpcError` on connection-level failure (after the
        pool's resend rule) and :class:`RpcRemoteError` when the server
        answered with an application error.
        """
        request = HttpRequest(
            "POST",
            f"{RPC_PREFIX}{method}",
            body=json.dumps(payload or {}, separators=(",", ":")).encode(),
        )
        request.set_header("Content-Type", "application/json")
        request.set_header("Connection", "keep-alive")
        wire = request.to_bytes(f"{self.address[0]}:{self.address[1]}")
        try:
            response = self._pool.request(wire)
            result = json.loads(response.body or b"{}")
        except TransportError as exc:
            raise RpcError(f"rpc {method!r}: {exc}") from exc
        except ValueError as exc:
            raise RpcError(f"unparseable rpc response: {exc}") from exc
        if response.status in (429, 503):
            # An admission refusal, not a handler failure: the server
            # answered before running anything, so the call is safely
            # retryable — after the server's own hint.
            error = result.get("error", "") if isinstance(result, dict) else ""
            raise RpcBusyError(
                method,
                response.status,
                str(error),
                retry_after=retry_after_hint(response, result),
            )
        if response.status != 200:
            error = result.get("error", "") if isinstance(result, dict) else ""
            raise RpcRemoteError(method, response.status, str(error))
        if not isinstance(result, dict):
            raise RpcRemoteError(method, 200, "result is not a JSON object")
        return result


def retry_after_hint(
    response: HttpResponse, result: object = None
) -> float | None:
    """Parse a reply's ``Retry-After`` hint (header first, JSON fallback)."""
    header = response.header("Retry-After")
    if header:
        try:
            return float(header)
        except ValueError:
            pass
    if isinstance(result, dict):
        try:
            return float(result["retry_after"])
        except (KeyError, TypeError, ValueError):
            pass
    return None
