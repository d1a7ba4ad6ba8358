"""Experiment registry: one module per table/figure of the paper."""

from . import (
    figure2,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    scaling,
    table1,
    table2,
    table3,
)
from .base import ExperimentResult, cdf_rows, render_table
from .context import (
    ExperimentContext,
    clear_context_cache,
    context_cache_size,
    get_context,
    shared_result_cache,
)

ALL_EXPERIMENTS = {
    module.EXPERIMENT_ID: module.run
    for module in (
        table1,
        table2,
        table3,
        figure2,
        figure4,
        figure5,
        figure6,
        figure7,
        figure8,
        figure9,
        scaling,
    )
}


__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "cdf_rows",
    "render_table",
    "ExperimentContext",
    "clear_context_cache",
    "context_cache_size",
    "get_context",
    "shared_result_cache",
]
