"""The multi-step BAT query workflow — the heart of BQT.

Drives one address query through an ISP's BAT exactly as Section 3.3
describes: load the landing page, discover and fill the address form,
then react to whatever template the BAT renders next:

* *suggestions* — string-match the input against the suggestion list (with
  the ZIP sanity check) and select the best candidate;
* *multi-dwelling unit* — select a random unit, as the paper does;
* *existing customer* — proceed as a new customer (no authentication);
* *plans* — parse the plan rows: success;
* *no service* — a definitive negative answer: also a successful query;
* errors/blocks — recorded with a machine-readable failure reason.

Form fields are discovered from the live DOM (label text and input order),
never hard-coded per ISP, so the workflow survives field-name differences
between BATs.

The decision logic is **sans-I/O**: :func:`query_plan` is a generator that
yields browser commands (:class:`Navigate` / :class:`SubmitForm`) and
receives rendered :class:`Page` states, finally returning a
:class:`QueryOutcome`.  The driver (:class:`QueryWorkflow`, used by
:class:`~repro.core.bqt.BroadbandQueryTool`) owns the browser; the two
page decisions (:func:`pick_suggestion`, :func:`pick_unit`) are pure
functions that the columnar classifier in :mod:`repro.dataset.columnar`
calls too, so the scalar oracle and the fast path cannot diverge on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

import numpy as np

from ..errors import BqtError, PlanParseError
from ..net.clock import measure
from ..seeding import derive_seed
from .dom import DomNode
from .matching import best_suggestion
from .parsing import ObservedPlan, plans_from_markup
from .templates import TemplateKind, classify_page
from .webdriver import Browser

__all__ = [
    "QueryStatus",
    "QueryResult",
    "QueryWorkflow",
    "Navigate",
    "SubmitForm",
    "Page",
    "QueryOutcome",
    "pick_suggestion",
    "pick_unit",
    "query_plan",
]

_MAX_STEPS = 8


class QueryStatus:
    """Terminal states of one address query (plain-string enum)."""

    PLANS = "plans"
    NO_SERVICE = "no_service"
    NOT_FOUND = "not_found"
    NO_SUGGESTION_MATCH = "no_suggestion_match"
    TECHNICAL_ERROR = "technical_error"
    BLOCKED = "blocked"
    UNKNOWN_TEMPLATE = "unknown_template"
    MALFORMED_PAGE = "malformed_page"
    LOST = "lost"

    HITS = (PLANS, NO_SERVICE)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one (ISP, address) query."""

    isp: str
    input_line: str
    input_zip: str
    status: str
    plans: tuple[ObservedPlan, ...] = ()
    elapsed_seconds: float = 0.0
    steps: tuple[str, ...] = ()
    resolved_line: str = ""

    @property
    def is_hit(self) -> bool:
        """Did BQT obtain a definitive answer (plans or no-service)?"""
        return self.status in QueryStatus.HITS

    @property
    def best_cv(self) -> float | None:
        """Best carriage value among the observed plans."""
        if not self.plans:
            return None
        return max(plan.cv for plan in self.plans)


# ----------------------------------------------------------------------
# Browser commands and page states (the sans-I/O protocol)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Navigate:
    """Load a page (a GET on a fresh path)."""

    host: str
    path: str = "/"


@dataclass(frozen=True)
class SubmitForm:
    """Fill and submit a form on the current page.

    ``fields`` override form values by name; ``extra`` adds submit-button
    name/value pairs (clicking one entry of a clickable list).
    """

    selector: str
    fields: dict[str, str] = field(default_factory=dict)
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Page:
    """What a driver hands back after executing a command."""

    document: DomNode
    markup: str


@dataclass(frozen=True)
class QueryOutcome:
    """Terminal state of a query plan (the driver adds clock/identity info)."""

    status: str
    plans: tuple[ObservedPlan, ...] = ()
    resolved_line: str = ""
    steps: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# DOM discovery helpers (pure functions of the received page)
# ----------------------------------------------------------------------
def _discover_address_fields(form: DomNode) -> tuple[str, str]:
    """Find the (address, zip) input names from labels / input order."""
    inputs = [
        node
        for node in form.select("input")
        if node.attr("type", "text") == "text" and node.attr("name")
    ]
    if len(inputs) < 2:
        raise BqtError("availability form does not have two text inputs")
    labels = {
        label.attr("for"): label.full_text().lower()
        for label in form.select("label")
        if label.attr("for")
    }
    address_name: str | None = None
    zip_name: str | None = None
    for node in inputs:
        label_text = labels.get(node.attr("id") or "", "")
        if "zip" in label_text or "zip" in (node.attr("name") or "").lower():
            zip_name = node.attr("name")
        elif address_name is None:
            address_name = node.attr("name")
    if address_name is None or zip_name is None:
        # Fall back to input order: address first, ZIP second.
        address_name = inputs[0].attr("name") or ""
        zip_name = inputs[1].attr("name") or ""
    return address_name, zip_name


def _extract_choices(document: DomNode, field_name: str) -> list[tuple[str, str]]:
    """Extract (value, text) choices from a select or clickable list."""
    choices: list[tuple[str, str]] = []
    for option in document.select(f"select[name={field_name}] option"):
        value = option.attr("value", "") or ""
        if value != "":
            choices.append((value, option.full_text()))
    if choices:
        return choices
    for button in document.select(f"button[name={field_name}]"):
        value = button.attr("value", "") or ""
        if value != "":
            choices.append((value, button.full_text()))
    return choices


def _split_suggestion_text(text: str) -> tuple[str, str]:
    """Split 'street line, ZIP' into its parts (ZIP after last comma)."""
    line, _, zip_part = text.rpartition(",")
    if not line:
        return text.strip(), ""
    return line.strip(), zip_part.strip()


def pick_suggestion(
    street_line: str, zip_code: str, texts: Sequence[str]
) -> int | None:
    """Which of a suggestion page's listed texts BQT selects, or None.

    Each text is one ``"street line, ZIP"`` entry as the page shows it.
    A pure function of the query and the list: the columnar classifier
    makes the same pick from the address index without a page.
    """
    return best_suggestion(
        street_line, zip_code, [_split_suggestion_text(text) for text in texts]
    )


def pick_unit(street_line: str, zip_code: str, n_units: int) -> int:
    """Which of an MDU page's ``n_units`` listed units BQT selects.

    The paper selects a random unit from the list (Section 3.3).  The
    draw is keyed to the building so repeated curation runs are
    bit-identical regardless of worker/IP assignment, and so the columnar
    classifier can make the same pick without a page.
    """
    return derive_seed(0, "mdu-unit", street_line.upper(), zip_code) % n_units


def _suggestion_step(
    document: DomNode, street_line: str, zip_code: str
) -> str | SubmitForm:
    """Decide on a suggestions page: pick a candidate or fail terminally."""
    choices = _extract_choices(document, "choice")
    if not choices:
        return QueryStatus.MALFORMED_PAGE
    index = pick_suggestion(street_line, zip_code, [text for _, text in choices])
    if index is None:
        return QueryStatus.NO_SUGGESTION_MATCH
    value = choices[index][0]
    if document.select_one("select[name=choice]") is not None:
        return SubmitForm("form#suggestion-form", fields={"choice": value})
    return SubmitForm("form#suggestion-form", extra={"choice": value})


def _mdu_step(
    document: DomNode, street_line: str, zip_code: str
) -> str | SubmitForm:
    """Decide on an MDU page: pick the paper's random-but-stable unit."""
    choices = _extract_choices(document, "unit")
    if not choices:
        return QueryStatus.MALFORMED_PAGE
    value = choices[pick_unit(street_line, zip_code, len(choices))][0]
    if document.select_one("select[name=unit]") is not None:
        return SubmitForm("form#unit-form", fields={"unit": value})
    return SubmitForm("form#unit-form", extra={"unit": value})


# ----------------------------------------------------------------------
# The query plan (sans-I/O generator)
# ----------------------------------------------------------------------
def query_plan(
    host: str, street_line: str, zip_code: str
) -> Generator[Navigate | SubmitForm, Page, QueryOutcome]:
    """The full Section-3.3 query as a sans-I/O command generator.

    Yields browser commands, receives the :class:`Page` each one produced,
    and returns a :class:`QueryOutcome`.  Contains every template-handling
    decision BQT makes and not a single byte of I/O; the driver does the
    fetching.  (The querying ISP never appears: BQT's decisions are
    discovered from the rendered DOM, never keyed to the ISP — the driver
    stamps the ISP onto the final :class:`QueryResult` itself.)
    """
    steps: list[str] = []

    def finish(
        status: str,
        plans: tuple[ObservedPlan, ...] = (),
        resolved: str = "",
    ) -> QueryOutcome:
        return QueryOutcome(
            status=status,
            plans=plans,
            resolved_line=resolved,
            steps=tuple(steps),
        )

    page = yield Navigate(host, "/")
    kind = classify_page(page.markup)
    steps.append(kind)
    if kind != TemplateKind.HOME:
        return finish(
            QueryStatus.BLOCKED
            if kind == TemplateKind.BLOCKED
            else QueryStatus.UNKNOWN_TEMPLATE
        )

    form = page.document.select_one("form#availability-form")
    if form is None:
        return finish(QueryStatus.MALFORMED_PAGE)
    address_field, zip_field = _discover_address_fields(form)
    page = yield SubmitForm(
        "form#availability-form",
        fields={address_field: street_line, zip_field: zip_code},
    )

    for _ in range(_MAX_STEPS):
        kind = classify_page(page.markup)
        steps.append(kind)

        if kind == TemplateKind.PLANS:
            try:
                # Content-addressed: identical plans markup skips the
                # DOM rebuild and row walk entirely.
                plans = plans_from_markup(page.markup)
            except PlanParseError:
                return finish(QueryStatus.MALFORMED_PAGE)
            resolved = ""
            marker = page.document.select_one(".service-address strong")
            if marker is not None:
                resolved = marker.full_text()
            return finish(QueryStatus.PLANS, plans=plans, resolved=resolved)

        if kind == TemplateKind.NO_SERVICE:
            return finish(QueryStatus.NO_SERVICE)

        if kind == TemplateKind.SUGGESTIONS:
            decision = _suggestion_step(page.document, street_line, zip_code)
            if isinstance(decision, str):
                return finish(decision)
            page = yield decision
            continue

        if kind == TemplateKind.MDU:
            decision = _mdu_step(page.document, street_line, zip_code)
            if isinstance(decision, str):
                return finish(decision)
            page = yield decision
            continue

        if kind == TemplateKind.EXISTING_CUSTOMER:
            if page.document.select_one("form#new-customer-form") is None:
                return finish(QueryStatus.MALFORMED_PAGE)
            page = yield SubmitForm("form#new-customer-form")
            continue

        if kind == TemplateKind.NOT_FOUND:
            return finish(QueryStatus.NOT_FOUND)
        if kind == TemplateKind.TECHNICAL_ERROR:
            return finish(QueryStatus.TECHNICAL_ERROR)
        if kind == TemplateKind.BLOCKED:
            return finish(QueryStatus.BLOCKED)
        return finish(QueryStatus.UNKNOWN_TEMPLATE)

    return finish(QueryStatus.LOST)


class QueryWorkflow:
    """Executes BAT query workflows on a browser session."""

    def __init__(self, browser: Browser, rng: np.random.Generator) -> None:
        self._browser = browser
        self._rng = rng

    def run(self, isp: str, host: str, street_line: str, zip_code: str) -> QueryResult:
        """Query one address through one ISP's BAT."""
        browser = self._browser
        browser.reset_session()
        # Offset-free interval measurement (see repro.net.clock.measure):
        # a query's elapsed time is byte-identical however far into the
        # session its worker's clock already is.
        with measure(browser.clock) as timer:
            plan = query_plan(host, street_line, zip_code)
            command = next(plan)
            while True:
                if isinstance(command, Navigate):
                    browser.get(command.host, command.path)
                else:
                    browser.submit_form(
                        command.selector,
                        fields=command.fields or None,
                        extra=command.extra or None,
                    )
                try:
                    command = plan.send(Page(browser.document, browser.markup))
                except StopIteration as stop:
                    outcome: QueryOutcome = stop.value
                    break
        return QueryResult(
            isp=isp,
            input_line=street_line,
            input_zip=zip_code,
            status=outcome.status,
            plans=outcome.plans,
            elapsed_seconds=timer.seconds,
            steps=outcome.steps,
            resolved_line=outcome.resolved_line,
        )
