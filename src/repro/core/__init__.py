"""BQT — the paper's primary contribution: browser automation, template
classification, suggestion matching, plan parsing, workflow, fleet
orchestration and microbenchmark metrics."""

from .bqt import BroadbandQueryTool
from .dom import DomNode, Selector, parse_html, parse_html_cached
from .matching import (
    DEFAULT_ACCEPT_THRESHOLD,
    address_similarity,
    best_suggestion,
    levenshtein,
    string_similarity,
    token_similarity,
)
from .metrics import (
    HitRateReport,
    QueryTimeStats,
    hit_rate_report,
    query_time_stats,
)
from .orchestrator import ContainerFleet, FleetReport
from .parsing import (
    ObservedPlan,
    parse_plans_page,
    parse_price,
    parse_speed,
    plans_from_markup,
)
from .templates import SIGNATURES, TemplateKind, classify_page
from .webdriver import Browser, PageLoad
from .workflow import QueryResult, QueryStatus, QueryWorkflow

__all__ = [
    "BroadbandQueryTool",
    "DomNode",
    "Selector",
    "parse_html",
    "parse_html_cached",
    "DEFAULT_ACCEPT_THRESHOLD",
    "address_similarity",
    "best_suggestion",
    "levenshtein",
    "string_similarity",
    "token_similarity",
    "HitRateReport",
    "QueryTimeStats",
    "hit_rate_report",
    "query_time_stats",
    "ContainerFleet",
    "FleetReport",
    "ObservedPlan",
    "parse_plans_page",
    "plans_from_markup",
    "parse_price",
    "parse_speed",
    "SIGNATURES",
    "TemplateKind",
    "classify_page",
    "Browser",
    "PageLoad",
    "QueryResult",
    "QueryStatus",
    "QueryWorkflow",
]
