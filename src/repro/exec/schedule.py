"""Straggler-aware shard scheduling: cost model, LPT order, chunking.

The curation pipeline dispatches (city, ISP) shards through an executor.
Shard costs are wildly uneven — Spectrum's virtual query medians run ~2.3x
Frontier's, and its deployments cover several times as many sampled
addresses — so dispatching shards in enumeration order lets one slow shard
land late on a busy pool and serialize the tail of the run.  The paper's
Section 4.1 scaling result (flat per-query response times while wall clock
falls with fleet size) only holds when every container stays busy to the
end; this module restores that property for our shard fleet:

* :class:`ShardCostModel` prices each shard, preferring the **observed**
  wall time recorded in a :class:`~repro.exec.store.DiskShardStore`
  manifest by a previous run (the store doubles as a cost model) and
  falling back to a **static estimate** — effective politeness times task
  count, the dominant term of a shard's virtual-time budget.
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

All scheduling decisions are pure functions of configuration and recorded
costs: the same inputs produce the same dispatch order on every backend,
and the merged dataset never depends on that order at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..settings import SCHEDULE_MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spec import ShardSpec
    from .store import DiskShardStore

__all__ = [
    "SCHEDULE_MODES",
    "ShardCost",
    "ShardCostModel",
    "calibrate_costs",
    "chunk_spans",
    "lpt_order",
    "resolve_chunk_tasks",
]

#: ``auto`` chunking never makes a chunk smaller than this: below ~a dozen
#: tasks the per-chunk setup (fresh transport, BAT application, address
#: index) outweighs the packing benefit.
MIN_AUTO_CHUNK_TASKS = 12


@dataclass(frozen=True)
class ShardCost:
    """The scheduler's price for one (city, ISP) shard.

    Attributes:
        seconds: Predicted serial wall time (virtual or real — only the
            relative order matters to LPT).
        task_count: Number of sampled addresses in the shard.
        source: ``"observed"`` when read from a store manifest,
            ``"estimated"`` for the static fallback.
    """

    seconds: float
    task_count: int
    source: str


class ShardCostModel:
    """Prices shards from recorded observations, estimates otherwise.

    Args:
        store: Optional :class:`~repro.exec.store.DiskShardStore` whose
            manifest carries cost rows recorded by previous runs.  An
            observation is trusted only while its task count still matches
            the shard's current sample (a scale/sampling change re-prices
            from the estimate).
    """

    def __init__(self, store: "DiskShardStore | None" = None) -> None:
        self._store = store

    def cost(
        self,
        city: str,
        isp: str,
        task_count: int,
        politeness_seconds: float,
        config_digest: str = "",
        pacing_time_scale: float = 0.0,
    ) -> ShardCost:
        """Price one shard (observed wall time, else the static estimate).

        An observation is trusted only while its task count, its config
        digest (when the caller has one), *and* its pacing regime still
        match: a cost recorded under different knobs — politeness, fleet
        size — or at CPU speed instead of paced wall time prices a
        different workload, and falls back to the estimate instead of
        silently mis-ordering dispatch.  (Pacing is deliberately absent
        from the cache digest — it never changes a byte — which is why
        the cost record carries it separately.)
        """
        if self._store is not None:
            record = self._store.cost_for(city, isp)
            if (
                record is not None
                and record.task_count == task_count
                and record.wall_seconds > 0.0
                and (not config_digest
                     or record.config_digest == config_digest)
                and record.pacing_time_scale == float(pacing_time_scale)
            ):
                return ShardCost(
                    seconds=record.wall_seconds,
                    task_count=task_count,
                    source="observed",
                )
        return ShardCost(
            seconds=self.estimate(task_count, politeness_seconds),
            task_count=task_count,
            source="estimated",
        )

    def spec_cost(self, spec: "ShardSpec", task_count: int | None = None) -> ShardCost:
        """Price a :class:`~repro.exec.spec.ShardSpec` dispatch unit.

        Since the spec refactor the scheduler prices *specs*, not live
        shard plans: everything the cost model needs — coordinates,
        effective politeness, pacing regime, config digest — is already
        pure data on the spec.  ``task_count`` may be supplied when the
        caller knows the span size without materializing tasks; otherwise
        it is read off the spec's span (which must then be concrete).
        """
        if task_count is None:
            if spec.tasks is not None:
                task_count = len(spec.tasks)
            elif spec.stop is not None:
                task_count = max(0, spec.stop - spec.start)
            else:
                raise ConfigurationError(
                    "cannot price an open-ended spec span without task_count"
                )
        return self.cost(
            spec.city,
            spec.isp,
            task_count,
            spec.config.effective_politeness(spec.isp),
            config_digest=spec.config_digest,
            pacing_time_scale=spec.config.pacing_time_scale,
        )

    @staticmethod
    def estimate(task_count: int, politeness_seconds: float) -> float:
        """Static shard-cost estimate: effective politeness x task count.

        Politeness is the per-query pause every worker honors, so it is a
        lower bound on a shard's per-task virtual budget; the ``+ 1``
        keeps zero-politeness configurations ordered by task count rather
        than collapsing every shard to cost zero.
        """
        return float(task_count) * (float(politeness_seconds) + 1.0)


def calibrate_costs(
    costs: Sequence[ShardCost], politeness: Sequence[float]
) -> list[float]:
    """Comparable prices for a mixed observed/estimated shard set.

    Observed costs are *real* wall seconds; the static estimate is in
    *virtual* seconds (politeness x tasks) — typically orders of
    magnitude larger on the unpaced in-process transport.  Sorting the
    two units together would rank every estimated shard above every
    observed one, no matter how small, re-creating the straggler tail
    for exactly the shards the cost model knows most about.  This rescales
    the estimated prices into observed units using the shards that have
    both numbers: ``factor = observed seconds / what the estimator would
    have said for those same shards``.  All-observed or all-estimated
    sets pass through unchanged, as do degenerate (zero) calibrations.
    """
    if len(costs) != len(politeness):
        raise ConfigurationError(
            f"{len(costs)} costs for {len(politeness)} politeness values"
        )
    prices = [float(cost.seconds) for cost in costs]
    observed = [i for i, cost in enumerate(costs) if cost.source == "observed"]
    estimated = [i for i, cost in enumerate(costs) if cost.source != "observed"]
    if not observed or not estimated:
        return prices
    observed_sum = sum(prices[i] for i in observed)
    estimate_sum = sum(
        ShardCostModel.estimate(costs[i].task_count, politeness[i])
        for i in observed
    )
    if observed_sum <= 0.0 or estimate_sum <= 0.0:
        return prices
    factor = observed_sum / estimate_sum
    for i in estimated:
        prices[i] *= factor
    return prices


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

    ``None`` disables chunking; an integer is used as-is (floored at one);
    ``"auto"`` targets roughly four dispatch units per executor slot —
    enough granularity that the final units land on an almost-drained pool
    — without ever dropping below :data:`MIN_AUTO_CHUNK_TASKS` tasks per
    chunk, where per-chunk setup would dominate.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec.lower() != "auto":
            raise ConfigurationError(
                f"chunk_tasks must be an integer, 'auto' or None, not {spec!r}"
            )
        if width <= 1 or total_tasks <= 0:
            return None  # a serial pool gains nothing from chunking
        target_units = 4 * width
        cap = max(MIN_AUTO_CHUNK_TASKS, -(-total_tasks // target_units))
        return cap
    if spec < 1:
        raise ConfigurationError("chunk_tasks must be >= 1")
    return int(spec)


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
