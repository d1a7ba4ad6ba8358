"""A small synchronous client for the serving tier.

Tests, the CLI smoke path, and the load benchmarks all talk to
:class:`DatasetServeServer` through this: one keep-alive socket in the
shared :class:`~repro.net.conn.KeepAlivePool` (and its resend rule), and
optional refusal-aware retries built on
:func:`~repro.core.retry.retry_with_backoff` — a 429/503 refusal's
``Retry-After`` hint floors the pause, so a client that retries does it on
the server's schedule, not its own.
"""

from __future__ import annotations

import json
from urllib.parse import urlencode

from ..core.retry import BackoffPolicy, retry_with_backoff
from ..errors import TransportError
from ..net.conn import KeepAlivePool
from ..net.http import HttpRequest, HttpResponse
from ..net.rpc import retry_after_hint

__all__ = ["ServeClient", "ServeRefused"]


class ServeRefused(TransportError):
    """The server refused the request (429/503) — retryable by design."""

    def __init__(self, status: int, reason: str, retry_after: float | None) -> None:
        super().__init__(f"serve refused with {status}: {reason}")
        self.status = status
        self.retry_after = retry_after


class ServeClient:
    """Keep-alive HTTP client for one serving endpoint.

    Not thread-safe: load generators run one client per thread (which
    also gives each thread its own admission identity via the
    ``X-Forwarded-For`` override).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        client_id: str | None = None,
    ) -> None:
        self.address = (host, int(port))
        self.timeout = timeout
        self.client_id = client_id
        self._pool = KeepAlivePool(self.address, timeout)

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def get(self, path: str) -> HttpResponse:
        """One GET over the keep-alive connection."""
        request = HttpRequest.get(path)
        request.set_header("Connection", "keep-alive")
        if self.client_id:
            request.set_header("X-Forwarded-For", self.client_id)
        return self._pool.request(
            request.to_bytes(f"{self.address[0]}:{self.address[1]}")
        )

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def query(
        self,
        city: str,
        isp: str,
        klass: str = "interactive",
        deadline_ms: float | None = None,
        force: bool = False,
        retries: int = 0,
    ) -> HttpResponse:
        """Query one (city, ISP) shard.

        With ``retries > 0``, 429/503 refusals are retried through the
        shared backoff helper; the server's ``Retry-After`` hint floors
        each pause.  The final refusal is returned (not raised), so
        callers always see an :class:`~repro.net.http.HttpResponse`.
        """
        params = {"city": city, "isp": isp, "class": klass}
        if deadline_ms is not None:
            params["deadline_ms"] = f"{deadline_ms:g}"
        if force:
            params["force"] = "1"
        path = f"/query?{urlencode(params)}"
        if retries <= 0:
            return self.get(path)

        def once() -> HttpResponse:
            response = self.get(path)
            if response.status in (429, 503):
                try:
                    payload = json.loads(response.text())
                except ValueError:
                    payload = {}
                refused = ServeRefused(
                    response.status,
                    str(payload.get("error", "")),
                    retry_after_hint(response, payload),
                )
                refused.response = response
                raise refused
            return response

        try:
            return retry_with_backoff(
                once,
                attempts=retries + 1,
                policy=BackoffPolicy(base_delay=0.05, multiplier=2.0, max_delay=1.0),
                retryable=(ServeRefused,),
            )
        except ServeRefused as exc:
            return exc.response  # the final refusal, as a response

    def healthz(self) -> HttpResponse:
        return self.get("/healthz")

    def stats(self) -> HttpResponse:
        return self.get("/stats")
