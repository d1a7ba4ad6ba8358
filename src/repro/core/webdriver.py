"""A minimal browser-automation driver (the Selenium stand-in).

The paper drives ISP BATs with Selenium because direct API querying is
blocked by anti-scraping safeguards (Section 3.2-3.3).  Our driver
reproduces the essential browser behaviours those safeguards key on:

* a cookie jar that faithfully replays dynamic session cookies;
* form interaction performed against the *parsed DOM* — field names are
  discovered from the page, never hard-coded per ISP;
* sequential page loads on one client identity (a leased residential IP);
* page-load timing measured on the session clock, which is how BQT's
  query-resolution-time microbenchmark (Figure 2b) is produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BqtError
from ..net.clock import Clock, VirtualClock, measure
from ..net.cookies import CookieJar
from ..net.http import HttpRequest
from ..net.transport import Transport
from .dom import DomNode, parse_html_cached

__all__ = ["Browser", "PageLoad", "build_form_request"]


@dataclass(frozen=True)
class PageLoad:
    """Record of one page fetch."""

    host: str
    path: str
    status: int
    elapsed_seconds: float


def build_form_request(
    document: DomNode,
    fallback_path: str,
    form_selector: str,
    fields: dict[str, str] | None = None,
    extra: dict[str, str] | None = None,
) -> HttpRequest:
    """Build the request a form submission produces (pure DOM -> HTTP).

    :meth:`Browser.submit_form` sends what this returns.  ``fields``
    override the form's default values by field name; ``extra`` adds
    submit-button name/value pairs.
    """
    form = document.select_one(form_selector)
    if form is None:
        raise BqtError(f"no form matches selector {form_selector!r}")
    action = form.attr("action") or fallback_path
    method = (form.attr("method") or "get").upper()
    values = form.form_fields()
    for name, value in (fields or {}).items():
        values[name] = value
    for name, value in (extra or {}).items():
        values[name] = value
    if method == "POST":
        return HttpRequest.form_post(action, values)
    query = "&".join(f"{k}={v}" for k, v in values.items())
    return HttpRequest.get(f"{action}?{query}" if query else action)


class Browser:
    """One browsing session bound to a transport, an exit IP and a clock."""

    def __init__(
        self,
        transport: Transport,
        client_ip: str,
        clock: Clock | None = None,
    ) -> None:
        self._transport = transport
        self.client_ip = client_ip
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self._jar = CookieJar()
        self.host: str | None = None
        self.document: DomNode | None = None
        self.markup: str = ""
        self.status: int = 0
        self.history: list[PageLoad] = []

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def _fetch(self, request: HttpRequest, host: str) -> DomNode:
        self._jar.apply(host, request)
        with measure(self.clock) as timer:
            response = self._transport.send(
                request, host, self.client_ip, self.clock
            )
        elapsed = timer.seconds
        self._jar.update_from_response(host, response)
        self.host = host
        self.markup = response.text()
        self.status = response.status
        self.document = parse_html_cached(self.markup)
        self.history.append(
            PageLoad(host=host, path=request.path, status=response.status,
                     elapsed_seconds=elapsed)
        )
        return self.document

    def get(self, host: str, path: str = "/") -> DomNode:
        """Navigate to a page."""
        return self._fetch(HttpRequest.get(path), host)

    def submit_form(
        self,
        form_selector: str,
        fields: dict[str, str] | None = None,
        extra: dict[str, str] | None = None,
    ) -> DomNode:
        """Fill and submit a form on the current page.

        ``fields`` override the form's default values by field name;
        ``extra`` adds submit-button name/value pairs (clicking a specific
        button in a list, e.g. a suggestion entry).
        """
        if self.document is None or self.host is None:
            raise BqtError("no page loaded; call get() first")
        request = build_form_request(
            self.document, self.history[-1].path, form_selector, fields, extra
        )
        return self._fetch(request, self.host)

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def reset_session(self) -> None:
        """Drop cookies and history — a fresh browser profile."""
        self._jar.clear()
        self.document = None
        self.markup = ""
        self.status = 0
        self.host = None
        self.history.clear()

    def cookies_for(self, host: str) -> dict[str, str]:
        return self._jar.cookies_for(host)
