"""The HTTP endpoint of the serving tier.

:class:`DatasetServeServer` is an app on the threaded server shell
(:class:`~repro.net.conn.ThreadedServer`), like every other endpoint: a
thread per connection, the shared keep-alive framing loop, a
``start()``/``stop()``/context-manager facade, and the same server-side
fault seam, so the serving endpoint runs under exactly the chaos
profiles every other endpoint does.

Each request runs on its connection's own thread.  The cheap sans-I/O
admission verdict comes first, so a refused request is answered in
microseconds without waiting for a handler slot — the tier's refusal
capacity stays high precisely when its service capacity is exhausted.
An admitted query then calls :meth:`ServeService.handle` on the same
thread; admission caps how many such calls run at once
(``width + queue_depth``).  A query's body comes back as finished
bytes and is written unchanged.

Routes::

    GET /healthz                          liveness + congestion state
    GET /stats                            admission/cache/serve counters
    GET /query?city=C&isp=I[&class=K]     one (city, ISP) shard
             [&deadline_ms=N][&force=1]

Response headers: ``X-Repro-Congestion`` (always: clear / precongestion /
overload), ``X-Repro-Source`` (cache / stale / executed) on 200s,
``Retry-After`` on 429/503 refusals.
"""

from __future__ import annotations

import json
import math
from urllib.parse import parse_qs, urlsplit

from ..net.conn import ThreadedServer
from ..net.faults import FaultProfile
from ..net.http import HttpRequest, HttpResponse
from .admission import Deadline
from .service import ServeService

__all__ = ["DatasetServeServer"]


def _json_response(status: int, body: dict | bytes) -> HttpResponse:
    """A JSON response; ``bytes`` are an already-encoded body."""
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    response = HttpResponse(status=status, body=body)
    response.set_header("Content-Type", "application/json")
    return response


class DatasetServeServer(ThreadedServer):
    """The ``python -m repro.dataset serve`` HTTP endpoint.

    Args:
        service: The :class:`~repro.serve.service.ServeService` doing the
            actual work.
        host / port: Bind address (port 0 picks a free port; read it back
            from :attr:`address`, known once constructed).
        default_deadline_ms: Deadline applied to queries that do not pass
            ``deadline_ms`` themselves (None = no default deadline).
        fault_profile: Explicit fault profile / spec string; None falls
            back to ``REPRO_FAULT_PROFILE`` (the shared resolution rule).
    """

    def __init__(
        self,
        service: ServeService,
        host: str = "127.0.0.1",
        port: int = 0,
        default_deadline_ms: float | None = None,
        fault_profile: FaultProfile | str | None = None,
    ) -> None:
        super().__init__("serve", host, port, fault_profile)
        self.service = service
        self.default_deadline_ms = default_deadline_ms

    def stop(self) -> None:
        super().stop()
        self.service.close()

    def reject(self, error: Exception) -> HttpResponse:
        response = _json_response(400, {"error": f"bad request: {error}"})
        response.set_header("Connection", "close")
        return response

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def respond(self, request: HttpRequest, peer: str) -> HttpResponse:
        client = request.header("X-Forwarded-For") or peer
        parts = urlsplit(request.path)
        route = parts.path
        params = {
            name: values[-1]
            for name, values in parse_qs(parts.query, keep_blank_values=True).items()
        }
        now = self.service.clock.now()
        if request.method != "GET":
            return _json_response(405, {"error": "only GET is served"})
        if route == "/healthz":
            # Health bypasses rate limits by class, but still flows
            # through decide() so the decision counters stay honest.
            decision = self.service.admit(client, "", "health", now)
            payload = self.service.healthz(now)
            response = _json_response(200, payload)
            response.set_header("X-Repro-Congestion", decision.state)
            return response
        if route == "/stats":
            payload = self.service.stats(now)
            response = _json_response(200, payload)
            response.set_header(
                "X-Repro-Congestion", payload.get("admission", {}).get("state", "clear")
            )
            return response
        if route == "/query":
            return self._query(params, client, now)
        return _json_response(404, {"error": f"no route {route!r}"})

    def _query(
        self, params: dict[str, str], client: str, now: float
    ) -> HttpResponse:
        city = params.get("city", "")
        isp = params.get("isp", "")
        if not city or not isp:
            return _json_response(
                400, {"error": "query needs city= and isp= parameters"}
            )
        klass = params.get("class", "interactive")
        force = params.get("force", "") in ("1", "true", "yes")
        # Parameters are checked before admission: an admitted request
        # holds an in-flight slot that only handle() gives back.
        budget_ms = self.default_deadline_ms
        raw_deadline = params.get("deadline_ms")
        if raw_deadline is not None:
            try:
                budget_ms = float(raw_deadline)
            except ValueError:
                budget_ms = math.nan
            if not math.isfinite(budget_ms):
                return _json_response(
                    400, {"error": f"bad deadline_ms: {raw_deadline!r}"}
                )

        decision = self.service.admit(client, isp, klass, now)
        if not decision.admitted:
            response = _json_response(
                decision.status,
                {"error": decision.reason, "state": decision.state},
            )
            response.set_header("X-Repro-Congestion", decision.state)
            if decision.retry_after is not None:
                response.set_header("Retry-After", f"{decision.retry_after:g}")
            return response

        deadline: Deadline | None = None
        # The no-admission baseline deliberately ignores deadlines too —
        # it is the "hope for the best" tier the benchmark compares
        # against, so it gets no graceful-degradation machinery at all.
        if budget_ms is not None and self.service.admission is not None:
            deadline = Deadline.after(now, budget_ms / 1000.0)

        result = self.service.handle(
            city, isp, decision, deadline=deadline, force=force
        )
        response = _json_response(result.status, result.body)
        response.set_header("X-Repro-Congestion", result.state)
        if result.source:
            response.set_header("X-Repro-Source", result.source)
        if result.retry_after is not None:
            response.set_header("Retry-After", f"{result.retry_after:g}")
        return response
