"""Failure injection: BQT resilience when a BAT changes or misbehaves.

The paper's Limitations section notes that any ISP template change breaks
the tool until its registry is updated — the failure must be *detected and
classified*, never silently mis-parsed.  These tests serve garbage,
half-broken, and adversarial pages and assert BQT degrades cleanly.
"""

from repro.core import BroadbandQueryTool, QueryStatus, TemplateKind, classify_page
from repro.net import HttpResponse, InProcessTransport, LatencyModel
from repro.net.transport import RENDER_HEADER


class _ScriptedApp:
    """A fake BAT that serves a scripted sequence of pages."""

    hostname = "bat.att.example"  # impersonate a known ISP host

    def __init__(self, pages):
        self._pages = list(pages)
        self._calls = 0

    def handle(self, request, client_ip, now):
        page = self._pages[min(self._calls, len(self._pages) - 1)]
        self._calls += 1
        response = HttpResponse.html(page)
        response.set_header(RENDER_HEADER, "1.0")
        return response


_HOME = """<html><body>
<h1>Check availability in your area</h1>
<form id="availability-form" action="/availability" method="post">
<label for="a">Street address</label><input type="text" id="a" name="addr">
<label for="z">ZIP code</label><input type="text" id="z" name="zip">
<button type="submit">Check</button></form></body></html>"""


def _tool_for(pages):
    transport = InProcessTransport(latency=LatencyModel.zero())
    transport.register(_ScriptedApp(pages))
    return BroadbandQueryTool(transport, client_ip="73.0.0.9", seed=0)


class TestTemplateDrift:
    def test_redesigned_home_page_detected(self):
        tool = _tool_for(["<html><body>Welcome to the new AT&T!</body></html>"])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.UNKNOWN_TEMPLATE

    def test_redesigned_result_page_detected(self):
        tool = _tool_for([_HOME, "<html><body>Totally new results UI</body></html>"])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.UNKNOWN_TEMPLATE

    def test_home_without_form_is_malformed(self):
        page = "<html><body>Check availability in your area</body></html>"
        tool = _tool_for([page])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.MALFORMED_PAGE

    def test_plans_page_without_rows_is_malformed(self):
        plans_page = """<html><body>
        <section class="available-plans"><h1>Plans available at your address</h1>
        <div class="plan-grid"></div></section></body></html>"""
        tool = _tool_for([_HOME, plans_page])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.MALFORMED_PAGE

    def test_plan_card_missing_price_is_malformed(self):
        plans_page = """<html><body><div class="plan-grid">
        <div class="plan-card"><h3 class="plan-name">X</h3>
        <span class="plan-download">300 Mbps</span>
        <span class="plan-upload">300 Mbps</span></div>
        </div></body></html>"""
        tool = _tool_for([_HOME, plans_page])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.MALFORMED_PAGE

    def test_suggestion_page_without_choices_is_malformed(self):
        suggestion_page = """<html><body>
        <section class="address-suggestions">
        <p>Did you mean one of the following?</p>
        <form id="suggestion-form" action="/suggestion" method="post"></form>
        </section></body></html>"""
        tool = _tool_for([_HOME, suggestion_page])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.MALFORMED_PAGE

    def test_infinite_interstitial_loop_bounded(self):
        """A BAT that loops the existing-customer page forever must
        terminate as LOST, not hang."""
        existing = """<html><body><section class="existing-customer">
        <p>an active account already receives service at your address</p>
        <form id="new-customer-form" action="/newcustomer" method="post">
        <button type="submit">continue</button></form></section></body></html>"""
        tool = _tool_for([_HOME] + [existing] * 20)
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.status == QueryStatus.LOST
        assert len(result.steps) <= 10

    def test_steps_recorded_for_debugging(self):
        tool = _tool_for([_HOME, "<html><body>???</body></html>"])
        result = tool.query("att", "12 Oak Ave", "70112")
        assert result.steps[0] == TemplateKind.HOME
        assert result.steps[-1] == TemplateKind.UNKNOWN


class TestClassifierPrecedence:
    def test_blocked_beats_everything(self):
        page = '<div class="access-blocked"><div class="plan-grid">x</div></div>'
        assert classify_page(page) == TemplateKind.BLOCKED

    def test_error_beats_plans(self):
        page = '<div class="technical-error"><table class="plans-table"></table></div>'
        assert classify_page(page) == TemplateKind.TECHNICAL_ERROR

    def test_empty_page_unknown(self):
        assert classify_page("") == TemplateKind.UNKNOWN
