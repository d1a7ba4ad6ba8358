"""Sans-I/O admission control: decide *before* the queue melts down.

This module is the serving tier's entire congestion brain, deliberately
free of sockets, threads-that-sleep, and wall clocks — the
:class:`~repro.exec.membership.FleetDirectory` idiom.  Every primitive
reads time from explicit ``now`` floats (the I/O shell passes its clock's
``now()``), so the whole state machine is unit-testable with zero real
sleeps and chaos runs replay deterministically.

The load model is PCN's (Pre-Congestion Notification, PAPERS.md §Related
work): a **virtual queue** drained at ``theta`` x the tier's real
capacity (``theta < 1``) receives every admitted request's estimated
cost.  Because the virtual queue drains *slower* than the real one, its
backlog crosses the marking threshold while the real system still has
headroom — which is the whole point: the tier flips to *pre-congestion*
(mark responses, shed the batch class, serve stale instead of
re-curating) before saturation, and to *overload* (additionally refuse
interactive cache misses that have no stale answer) only when even the
marking regime cannot hold.

State ladder, driven by the virtual queue's backlog delay::

    clear ──(backlog > mark_delay_s)──► precongestion ──(> shed_delay_s)──► overload
      ▲                                      │                                 │
      └────────────── (backlog drains back below the thresholds) ◄────────────┘

Per-class policy matrix (what :meth:`AdmissionController.decide` applies):

========== ========= ================== =====================
class      clear     precongestion      overload
========== ========= ================== =====================
health     admit     admit              admit
interactive admit    admit, stale-first admit, stale-or-refuse
batch      admit     shed (503)         shed (503)
========== ========= ================== =====================

Rate limits (per-client and per-ISP token buckets) and the bounded queue
apply in every state; their refusals are 429 and 503 respectively, both
with ``Retry-After``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "ADMISSION_STATES",
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "Decision",
    "REQUEST_CLASSES",
    "TokenBucket",
    "VirtualQueue",
]

#: Request classes, in shedding order: ``batch`` sheds first, ``health``
#: never (an overloaded tier must still answer its load balancer).
REQUEST_CLASSES = ("interactive", "batch", "health")

#: Congestion states, in severity order.
ADMISSION_STATES = ("clear", "precongestion", "overload")


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, holding at most ``burst``.

    Not thread-safe on its own; the :class:`AdmissionController` holds
    its lock around every touch.  ``try_take`` returns 0.0 on success or
    the seconds until one token will exist — the ``Retry-After`` value.
    """

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise ConfigurationError(
                f"token bucket needs positive rate/burst: {rate}/{burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = float(now)

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
        self._last = max(self._last, now)

    def try_take(self, now: float, n: float = 1.0) -> float:
        """Take ``n`` tokens: 0.0 on success, else seconds to wait."""
        self._refill(now)
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate


class VirtualQueue:
    """PCN's load estimator: a fictional queue drained at theta x capacity.

    ``observe`` adds one admitted request's (estimated) cost in seconds
    of work; ``backlog_delay`` is how long that backlog would take the
    *virtual* (slowed-down) server to drain.  Because the virtual drain
    rate is ``theta < 1`` of the real one, the backlog delay crosses any
    threshold earlier than the real queue's would — early warning by
    construction, not by prediction.
    """

    def __init__(self, drain_rate: float, now: float = 0.0) -> None:
        if drain_rate <= 0:
            raise ConfigurationError(
                f"virtual queue drain rate must be positive: {drain_rate}"
            )
        self.drain_rate = float(drain_rate)
        self._backlog = 0.0  # seconds of work awaiting the virtual server
        self._last = float(now)

    def _drain(self, now: float) -> None:
        if now > self._last:
            self._backlog = max(
                0.0, self._backlog - (now - self._last) * self.drain_rate
            )
        self._last = max(self._last, now)

    def observe(self, cost_seconds: float, now: float) -> None:
        """Record one admitted request's work against the virtual server."""
        self._drain(now)
        self._backlog += max(0.0, float(cost_seconds))

    def refund(self, cost_seconds: float, now: float) -> None:
        """Take back work that was priced in but never actually happened.

        An admitted request is charged its *estimated* cost up front (so
        the early-warning signal leads the real queue); when it turns out
        to be a warm cache hit, the phantom work is refunded here so the
        virtual backlog tracks work the tier will really do.
        """
        self._drain(now)
        self._backlog = max(0.0, self._backlog - max(0.0, float(cost_seconds)))

    def backlog_delay(self, now: float) -> float:
        """Seconds the virtual server needs to drain the current backlog."""
        self._drain(now)
        return self._backlog / self.drain_rate


@dataclass(frozen=True)
class Deadline:
    """An absolute per-request deadline on the serving clock's axis.

    Propagated from the HTTP layer to the service, which checks it once,
    before dispatching any curation work: a request whose budget ran out
    while it waited answers 504 without curating, and a dispatched
    request runs to completion.
    """

    expires_at: float

    @classmethod
    def after(cls, now: float, budget_seconds: float) -> "Deadline":
        return cls(expires_at=float(now) + float(budget_seconds))

    def remaining(self, now: float) -> float:
        return self.expires_at - now

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class CircuitBreaker:
    """Closed / open / half-open breaker around a fallible backend.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses instantly (no queue time wasted on a
    backend that is down).  After ``reset_after_s`` one probe call is
    let through (half-open): success closes the circuit, failure re-opens
    the clock.  Not thread-safe on its own; callers serialize access
    (the serving tier touches it under the admission lock).
    """

    def __init__(
        self, failure_threshold: int = 3, reset_after_s: float = 5.0
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        if reset_after_s <= 0:
            raise ConfigurationError(
                f"reset_after_s must be positive: {reset_after_s}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        return "half-open" if self._probing else "open"

    def allow(self, now: float) -> bool:
        """May a call proceed right now?"""
        if self._opened_at is None:
            return True
        if self._probing:
            return False  # one probe at a time
        if now - self._opened_at >= self.reset_after_s:
            self._probing = True  # the caller is the probe
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self, now: float) -> None:
        self._failures += 1
        self._probing = False
        if self._failures >= self.failure_threshold or self._opened_at is not None:
            self._opened_at = now


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller.

    Attributes:
        width: The tier's real service concurrency (executor width).
        queue_depth: Admitted-but-waiting requests tolerated beyond
            ``width`` before the bounded queue refuses with 503.
        theta: Virtual-queue drain fraction of real capacity (< 1; the
            gap is the early-warning margin).
        mark_delay_s: Virtual backlog delay that flips clear →
            precongestion.
        shed_delay_s: Virtual backlog delay that flips precongestion →
            overload (must exceed ``mark_delay_s``).
        client_rate / client_burst: Per-client token bucket (keyed by
            ``X-Forwarded-For`` or the peer address).
        isp_rate / isp_burst: Per-ISP token bucket (one bucket per ISP
            named in the query), so one hot ISP cannot starve the rest.
        est_cost_s: Prior estimate of one cache-missing request's work,
            seconds; refined at runtime by an EWMA of observed costs.
        max_clients: LRU cap on tracked per-client buckets.
    """

    width: int = 2
    queue_depth: int = 8
    theta: float = 0.8
    mark_delay_s: float = 0.5
    shed_delay_s: float = 2.0
    client_rate: float = 50.0
    client_burst: float = 25.0
    isp_rate: float = 200.0
    isp_burst: float = 100.0
    est_cost_s: float = 0.05
    max_clients: int = 1024

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1: {self.width}")
        if self.queue_depth < 0:
            raise ConfigurationError(
                f"queue_depth must be >= 0: {self.queue_depth}"
            )
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(
                f"theta must be in (0, 1): {self.theta} (PCN's early "
                "warning is exactly the 1-theta margin)"
            )
        if self.shed_delay_s <= self.mark_delay_s:
            raise ConfigurationError(
                f"shed_delay_s ({self.shed_delay_s}) must exceed "
                f"mark_delay_s ({self.mark_delay_s})"
            )


@dataclass(frozen=True)
class Decision:
    """One admission verdict.

    ``admitted`` requests proceed (possibly ``stale_first``); refusals
    carry the HTTP ``status`` to answer with and a ``retry_after`` hint.
    ``state`` is the congestion state at decision time — the
    ``X-Repro-Congestion`` header value, whatever the verdict.
    """

    admitted: bool
    state: str
    status: int = 200
    retry_after: float | None = None
    reason: str = ""
    #: Pre-congestion policy: a cache miss should be answered from the
    #: stale disk tier when possible instead of re-curated.
    stale_first: bool = False
    #: Overload policy: a miss with no stale answer is refused (503)
    #: rather than executed.
    refuse_miss: bool = False
    #: Accounting token: True only when the controller counted this
    #: request in-flight (callers must pair it with ``finish``).
    counted: bool = field(default=False, compare=False)
    #: Estimated cost priced into the virtual queue at admission time;
    #: handed back to ``finish`` so a warm hit can be refunded.
    charged: float = field(default=0.0, compare=False)


class AdmissionController:
    """The serving tier's admission brain (thread-safe, sans-I/O).

    One instance guards one serving process.  The I/O shell calls
    :meth:`decide` with each parsed request's (client, isp, class) and
    its clock's ``now``; every admitted non-health request must be paired
    with exactly one :meth:`finish` carrying the observed service cost
    and whether the request actually executed curation work.  Executed
    costs refine the EWMA miss-cost estimate the virtual queue prices
    arrivals with; warm hits refund their unspent admission charge
    instead (see :meth:`finish` for why the split matters).
    """

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        cfg = self.config
        self._lock = threading.Lock()
        self._vq = VirtualQueue(drain_rate=cfg.theta * cfg.width)
        self._clients: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._isps: dict[str, TokenBucket] = {}
        self._inflight = 0
        self._est_cost = float(cfg.est_cost_s)
        # Observability counters (the /stats verb renders these).
        self.admitted = 0
        self.rate_limited = 0
        self.shed = 0
        self.queue_refused = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state(self, now: float) -> str:
        """Congestion state right now (reads the virtual queue)."""
        with self._lock:
            return self._state_locked(now)

    def _state_locked(self, now: float) -> str:
        delay = self._vq.backlog_delay(now)
        if delay > self.config.shed_delay_s:
            return "overload"
        if delay > self.config.mark_delay_s:
            return "precongestion"
        return "clear"

    def snapshot(self, now: float) -> dict:
        """Counters + live state, JSON-shaped (the /stats payload)."""
        with self._lock:
            return {
                "state": self._state_locked(now),
                "backlog_delay_s": round(self._vq.backlog_delay(now), 6),
                "inflight": self._inflight,
                "est_cost_s": round(self._est_cost, 6),
                "admitted": self.admitted,
                "rate_limited": self.rate_limited,
                "shed": self.shed,
                "queue_refused": self.queue_refused,
            }

    # ------------------------------------------------------------------
    # The verdict
    # ------------------------------------------------------------------
    def decide(self, client: str, isp: str, klass: str, now: float) -> Decision:
        """Admit or refuse one request (the policy matrix, in order).

        Check order matters: rate limits come first (a spammy client is
        refused 429 even when the tier is idle), then class shedding by
        congestion state, then the bounded queue.  Health checks bypass
        everything — an overloaded tier must still answer its prober.
        """
        if klass not in REQUEST_CLASSES:
            klass = "interactive"
        cfg = self.config
        with self._lock:
            state = self._state_locked(now)
            if klass == "health":
                return Decision(admitted=True, state=state, reason="health")

            wait = self._client_bucket(client, now).try_take(now)
            if wait <= 0.0 and isp:
                wait = self._isp_bucket(isp, now).try_take(now)
            if wait > 0.0:
                self.rate_limited += 1
                return Decision(
                    admitted=False,
                    state=state,
                    status=429,
                    retry_after=round(wait, 3),
                    reason="rate-limited",
                )

            if klass == "batch" and state != "clear":
                # PCN's whole point: the batch class sheds *before*
                # saturation, with an honest hint of when to come back.
                self.shed += 1
                return Decision(
                    admitted=False,
                    state=state,
                    status=503,
                    retry_after=round(
                        max(self._vq.backlog_delay(now), cfg.mark_delay_s), 3
                    ),
                    reason="shed-batch",
                )

            if self._inflight >= cfg.width + cfg.queue_depth:
                # The bounded queue: admitting more would only grow a
                # line nobody benefits from standing in.
                self.queue_refused += 1
                return Decision(
                    admitted=False,
                    state=state,
                    status=503,
                    retry_after=round(max(self._est_cost, 0.01), 3),
                    reason="queue-full",
                )

            # Admitted.  Price the arrival into the virtual queue at the
            # current cost estimate — at admission, not completion, so
            # the early-warning signal leads the real queue.
            self._vq.observe(self._est_cost, now)
            self._inflight += 1
            self.admitted += 1
            return Decision(
                admitted=True,
                state=state,
                stale_first=state != "clear",
                refuse_miss=state == "overload",
                reason="admitted",
                counted=True,
                charged=self._est_cost,
            )

    def finish(
        self,
        cost_seconds: float,
        now: float,
        *,
        charged: float = 0.0,
        executed: bool = True,
    ) -> None:
        """Account one admitted request's completion.

        ``cost_seconds`` is the observed service time.  ``executed``
        says whether the request actually ran curation work: only those
        costs feed the EWMA estimate that prices future arrivals.  The
        estimate is *the cost of a miss*, not the blended mean — warm
        hits cost microseconds, and letting them into the EWMA drags the
        estimate toward zero until the controller happily admits a burst
        of misses it has priced at nothing (the convoy it exists to
        prevent).  A non-executed finish instead refunds its unspent
        admission charge (``charged`` minus the observed cost) to the
        virtual queue, so warm traffic does not inflate the backlog
        either: hits are cheap *and* accounted cheap, while the price of
        the next miss stays honest.
        """
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            cost = max(0.0, float(cost_seconds))
            if executed:
                self._est_cost = 0.8 * self._est_cost + 0.2 * cost
            else:
                self._vq.refund(max(0.0, float(charged)) - cost, now)

    # ------------------------------------------------------------------
    # Buckets
    # ------------------------------------------------------------------
    def _client_bucket(self, client: str, now: float) -> TokenBucket:
        bucket = self._clients.get(client)
        if bucket is None:
            bucket = TokenBucket(
                self.config.client_rate, self.config.client_burst, now=now
            )
            self._clients[client] = bucket
        self._clients.move_to_end(client)
        while len(self._clients) > self.config.max_clients:
            self._clients.popitem(last=False)
        return bucket

    def _isp_bucket(self, isp: str, now: float) -> TokenBucket:
        bucket = self._isps.get(isp)
        if bucket is None:
            bucket = TokenBucket(
                self.config.isp_rate, self.config.isp_burst, now=now
            )
            self._isps[isp] = bucket
        return bucket
