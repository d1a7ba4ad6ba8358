"""Straggler-aware shard scheduling: shard price, LPT order, chunking.

The curation pipeline dispatches (city, ISP) shards through an executor.
Shard costs are wildly uneven — Spectrum's virtual query medians run ~2.3x
Frontier's, and its deployments cover several times as many sampled
addresses — so dispatching shards in enumeration order lets one slow shard
land late on a busy pool and serialize the tail of the run.  The paper's
Section 4.1 scaling result (flat per-query response times while wall clock
falls with fleet size) only holds when every container stays busy to the
end; this module restores that property for our shard fleet:

* :func:`shard_price` prices each shard statically — effective politeness
  times task count, the dominant term of a shard's virtual-time budget.
* :func:`lpt_order` sorts dispatch units longest-processing-time-first,
  the classic 4/3-approximation for makespan on identical machines.
* :func:`chunk_spans` slices an oversized shard's task list into
  deterministic, near-equal contiguous spans, so even a single giant
  (city, ISP) pair spreads across the pool.  Because every task's
  stochastic draws are content-keyed (see
  :meth:`repro.net.transport.InProcessTransport.begin_task`), a chunk
  replays exactly the observations the whole-shard run would have
  produced, and the canonical-order merge is byte-identical to a serial,
  unchunked run.

All scheduling decisions are pure functions of configuration: the same
inputs produce the same dispatch order on every backend and every run,
and the merged dataset never depends on that order at all.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from ..settings import SCHEDULE_MODES

__all__ = [
    "SCHEDULE_MODES",
    "chunk_spans",
    "lpt_order",
    "resolve_chunk_tasks",
    "shard_price",
]

#: ``auto`` chunking never makes a chunk smaller than this: below ~a dozen
#: tasks the per-chunk setup (fresh transport, BAT application, address
#: index) outweighs the packing benefit.
MIN_AUTO_CHUNK_TASKS = 12


def shard_price(task_count: int, politeness_seconds: float) -> float:
    """The scheduler's price for one shard: tasks x (politeness + 1).

    Politeness is the per-query pause every worker honors, so it is a
    lower bound on a shard's per-task virtual budget; the ``+ 1`` keeps
    zero-politeness configurations ordered by task count rather than
    collapsing every shard to price zero.  Only the relative order of
    prices matters to :func:`lpt_order`.
    """
    return float(task_count) * (float(politeness_seconds) + 1.0)


def lpt_order(
    costs: Sequence[float], tie_keys: Sequence[object] | None = None
) -> list[int]:
    """Indices of ``costs`` sorted longest-processing-time-first.

    Ties break on ``tie_keys`` (the unit's (city, ISP, span) coordinates
    in the pipeline) and then on the original index, so the dispatch
    order is deterministic across runs, platforms and backends.
    """
    if tie_keys is not None and len(tie_keys) != len(costs):
        raise ConfigurationError(
            f"{len(tie_keys)} tie keys for {len(costs)} costs"
        )

    def sort_key(index: int):
        tie = tie_keys[index] if tie_keys is not None else ()
        return (-float(costs[index]), tie, index)

    return sorted(range(len(costs)), key=sort_key)


def resolve_chunk_tasks(
    spec: "int | str | None",
    total_tasks: int,
    width: int,
) -> int | None:
    """Turn a chunk-cap spec into a concrete task count (or None).

    ``None`` disables chunking; an integer ``>= 1`` is used as-is;
    ``"auto"`` targets roughly four dispatch units per executor slot —
    enough granularity that the final units land on an almost-drained pool
    — without ever dropping below :data:`MIN_AUTO_CHUNK_TASKS` tasks per
    chunk, where per-chunk setup would dominate.  Any other spec raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if spec is None:
        return None
    if isinstance(spec, str) and spec.lower() == "auto":
        if width <= 1 or total_tasks <= 0:
            return None  # a serial pool gains nothing from chunking
        target_units = 4 * width
        return max(MIN_AUTO_CHUNK_TASKS, -(-total_tasks // target_units))
    if type(spec) is not int or spec < 1:
        raise ConfigurationError(
            f"chunk_tasks must be an integer >= 1, 'auto' or None, not {spec!r}"
        )
    return spec


def chunk_spans(n_tasks: int, chunk_tasks: int | None) -> tuple[tuple[int, int], ...]:
    """Deterministic near-equal contiguous spans covering ``n_tasks``.

    Returns ``(start, stop)`` slice bounds.  With ``chunk_tasks=None`` (or
    a cap the shard already fits in) the shard stays whole.  Otherwise the
    shard splits into ``ceil(n / cap)`` spans whose sizes differ by at
    most one — balanced pieces pack better than a run of full chunks plus
    one remainder sliver.

    >>> chunk_spans(10, None)
    ((0, 10),)
    >>> chunk_spans(10, 4)
    ((0, 4), (4, 7), (7, 10))
    """
    if n_tasks <= 0:
        return ((0, 0),) if n_tasks == 0 else ()
    if chunk_tasks is None or n_tasks <= chunk_tasks:
        return ((0, n_tasks),)
    n_chunks = -(-n_tasks // chunk_tasks)  # ceil division
    base, extra = divmod(n_tasks, n_chunks)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(n_chunks):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return tuple(spans)
