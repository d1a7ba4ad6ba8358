"""Transports: how HTTP messages reach a BAT application.

Two implementations share one interface:

* :class:`InProcessTransport` — dispatches directly to the application
  object and accounts for network RTT and server render time on the
  caller's (virtual) clock.  This is the fast path used for large curation
  runs.
* ``TcpTransport`` (in :mod:`repro.net.tcp`) — serializes the same messages
  over a real socket to a real threaded server.  Integration tests run the
  same BQT workflows over both, proving the protocol code is not a mock.

Applications implement :class:`BatServerApp`: a pure function of
``(request, client_ip, now)``.  Server render delay is communicated through
the internal ``X-Render-Seconds`` header, which the transport consumes
(sleeps/advances the clock) and strips before the response reaches the
client — the client only ever observes elapsed time, like a real browser.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Protocol

import numpy as np

from ..errors import TransportError
from .clock import Clock
from .http import HttpRequest, HttpResponse
from .latency import LatencyModel

__all__ = ["BatServerApp", "Transport", "InProcessTransport", "RENDER_HEADER"]

RENDER_HEADER = "X-Render-Seconds"


class BatServerApp(Protocol):
    """Server-side application interface."""

    @property
    def hostname(self) -> str:
        """The hostname this application serves."""
        ...

    def handle(self, request: HttpRequest, client_ip: str, now: float) -> HttpResponse:
        """Process one request.  ``now`` is the server's view of time."""
        ...


class Transport(ABC):
    """Delivers requests to hosts and accounts for elapsed time."""

    @abstractmethod
    def send(
        self,
        request: HttpRequest,
        host: str,
        client_ip: str,
        clock: Clock,
    ) -> HttpResponse:
        """Deliver ``request`` to ``host`` from ``client_ip``.

        Implementations advance (or block on) ``clock`` by the full
        request-response latency, so ``clock.now()`` deltas measure query
        resolution time.
        """

    @abstractmethod
    def knows_host(self, host: str) -> bool:
        """Whether this transport can route to ``host``."""


class InProcessTransport(Transport):
    """Direct-dispatch transport with simulated latency.

    Args:
        latency: Round-trip-time model applied to every request.
        seed: Seed for the RTT sampler.
        server_capacity: Number of concurrent clients the servers absorb
            before render times degrade linearly.  The paper's Section 4.1
            experiment found no measurable degradation at up to 200
            parallel containers, so the default capacity is far above that.
        time_scale: Real seconds slept per simulated second (0.0, the
            default, runs at CPU speed).  A non-zero scale makes every
            request *block* for its scaled virtual latency — the regime
            the paper's fleet actually lives in, where wall time tracks
            BAT render time, not CPU.  Virtual clocks, draws and the
            resulting dataset are byte-identical at every scale; only
            real elapsed time changes.  The pacing sleep happens outside
            the transport lock, so thread-parallel callers overlap it.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        seed: int = 0,
        server_capacity: int = 1000,
        time_scale: float = 0.0,
    ) -> None:
        self._apps: dict[str, BatServerApp] = {}
        self._latency = latency if latency is not None else LatencyModel()
        self._seed = seed
        self.time_scale = float(time_scale)
        self._rng = np.random.default_rng(seed)
        # Per-client task-scoped RTT streams (see begin_task); clients that
        # never announce a task keep drawing from the shared stream above.
        self._task_rngs: dict[str, np.random.Generator] = {}
        self._server_capacity = max(1, server_capacity)
        self.concurrency = 1  # set by the orchestrator for load modeling
        self._request_counts: dict[str, int] = {}
        # The RTT generator, request counters and application objects are
        # shared mutable state, guarded for callers on several threads.
        self._lock = threading.Lock()

    def register(self, app: BatServerApp) -> None:
        """Attach an application at its hostname."""
        self._apps[app.hostname] = app

    def begin_task(self, client_ip: str, *key: object) -> None:
        """Scope this client's stochastic streams to one task.

        Re-derives the client's RTT stream — and, for registered
        applications that support it, their render-delay streams — from
        the transport seed and the task's content key.  Every draw a task
        consumes thereafter is a pure function of ``(seed, key)``: the
        task's observation no longer depends on its position in the shard,
        which is what lets the curation scheduler slice shards into
        sub-shard chunks (and run them in any order, on any backend) while
        producing byte-identical datasets.

        Content keying means two *byte-identical* queries in one shard
        (distinct canonical addresses whose noisy public spellings
        collide — rare) draw identical latency streams and record equal
        elapsed times.  That is the content-addressed contract working
        as intended: same query, same outcome.  The alternatives are
        worse — keying on the canonical truth would leak ground truth
        into the measurement client, and occurrence counters would make
        draws position-dependent again.
        """
        from ..seeding import derive_seed

        task_seed = derive_seed(self._seed, "task-rtt", *key)
        with self._lock:
            self._task_rngs[client_ip] = np.random.default_rng(task_seed)
            for app in self._apps.values():
                scope = getattr(app, "begin_task", None)
                if scope is not None:
                    scope(client_ip, *key)

    def knows_host(self, host: str) -> bool:
        return host in self._apps

    @property
    def hosts(self) -> tuple[str, ...]:
        return tuple(self._apps)

    def request_count(self, host: str) -> int:
        """Total requests delivered to one host (politeness accounting)."""
        return self._request_counts.get(host, 0)

    def _load_multiplier(self) -> float:
        if self.concurrency <= self._server_capacity:
            return 1.0
        return self.concurrency / self._server_capacity

    def send(
        self,
        request: HttpRequest,
        host: str,
        client_ip: str,
        clock: Clock,
    ) -> HttpResponse:
        try:
            app = self._apps[host]
        except KeyError:
            raise TransportError(f"no route to host {host!r}") from None
        with self._lock:
            self._request_counts[host] = self._request_counts.get(host, 0) + 1
            rtt = self._latency.sample_rtt(
                self._task_rngs.get(client_ip, self._rng)
            )
            clock.sleep(rtt / 2.0)  # request propagation
            response = app.handle(request, client_ip, clock.now())
        render_value = response.header(RENDER_HEADER)
        render_seconds = float(render_value) if render_value else 0.0
        response.headers.pop(RENDER_HEADER, None)
        clock.sleep(render_seconds * self._load_multiplier())
        clock.sleep(rtt / 2.0)  # response propagation
        if self.time_scale > 0.0:
            # Realistic pacing: block for the scaled request latency, with
            # the lock released so concurrent workers overlap the wait.
            time.sleep(
                (rtt + render_seconds * self._load_multiplier())
                * self.time_scale
            )
        return response
