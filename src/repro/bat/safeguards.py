"""Anti-scraping safeguards.

Section 3.2 of the paper explains why the older direct-API approach broke:
ISPs introduced *dynamic cookies* ("unique server-side parameters appended
to each user session"), per-IP blocking of cookie reuse, and rate limits.
BQT's whole design — full browser mimicry over a residential proxy pool —
exists to survive these.  The simulated BATs therefore implement them for
real:

* every response rotates a session token; the next request must echo the
  latest token or the session is blocked;
* a session token is bound to the client IP that created it; replaying it
  from a different IP blocks the session (defeats naive cookie sharing);
* a sliding-window per-IP rate limit returns 429s to over-aggressive
  clients (defeats single-IP fleets).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

__all__ = ["SafeguardPolicy", "SafeguardDecision", "RateLimiter"]

TOKEN_COOKIE = "bat_token"
SESSION_COOKIE = "bat_session"


@dataclass(frozen=True)
class SafeguardDecision:
    """Outcome of a safeguard check."""

    allowed: bool
    reason: str = ""


class RateLimiter:
    """Sliding-window per-IP request limiter."""

    def __init__(self, max_requests: int, window_seconds: float = 60.0) -> None:
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self._events: dict[str, deque[float]] = {}

    def check(self, ip: str, now: float) -> bool:
        """Record one request; return False if the IP is over budget.

        Client clocks are independent (each BQT worker runs its own
        virtual clock), so per-IP time is clamped monotonic: a request
        stamped earlier than this IP's last event counts as concurrent
        with it, which is exactly what simultaneous sessions are.
        """
        events = self._events.setdefault(ip, deque())
        if events and now < events[-1]:
            now = events[-1]
        cutoff = now - self.window_seconds
        while events and events[0] < cutoff:
            events.popleft()
        events.append(now)
        return len(events) <= self.max_requests


@dataclass
class _SessionGuard:
    ip: str
    token: str
    step: int = 0


class SafeguardPolicy:
    """Dynamic-cookie and rate-limit enforcement for one BAT."""

    def __init__(self, secret: str, rate_limit_per_minute: int) -> None:
        self._secret = secret
        self._rate_limiter = RateLimiter(rate_limit_per_minute)
        self._sessions: dict[str, _SessionGuard] = {}

    def _mint_token(self, session_id: str, step: int) -> str:
        payload = f"{self._secret}:{session_id}:{step}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:24]

    def open_session(self, session_id: str, ip: str) -> str:
        """Begin tracking a session; returns the first token to issue."""
        token = self._mint_token(session_id, 0)
        self._sessions[session_id] = _SessionGuard(ip=ip, token=token, step=0)
        return token

    def rotate_token(self, session_id: str) -> str:
        """Issue the next per-step token for a session."""
        guard = self._sessions[session_id]
        guard.step += 1
        guard.token = self._mint_token(session_id, guard.step)
        return guard.token

    def check_request(
        self,
        session_id: str | None,
        presented_token: str | None,
        ip: str,
        now: float,
        requires_session: bool,
    ) -> SafeguardDecision:
        """Validate one incoming request against all safeguards."""
        if not self._rate_limiter.check(ip, now):
            return SafeguardDecision(False, "rate limit exceeded")
        if not requires_session:
            return SafeguardDecision(True)
        if not session_id or session_id not in self._sessions:
            return SafeguardDecision(False, "missing session")
        guard = self._sessions[session_id]
        if guard.ip != ip:
            return SafeguardDecision(False, "session bound to a different network")
        if presented_token != guard.token:
            return SafeguardDecision(False, "stale session token")
        return SafeguardDecision(True)

    def forget(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)
