"""Columnar curation core: the vectorized single-query hot path.

Every scaling layer in this library (threads, processes, LPT chunking,
distributed fleets, the serving tier) multiplies the *same* per-address
scalar inner loop: one full simulated browser session per task — HTML
render, DOM parse, cookie jar, safeguard checks — even though on the
in-process transport the observation each task produces is, since the
scheduler PR made every stochastic draw content-keyed, a **closed-form
function of the task's content**.  This module exploits that purity: each
task's walk is resolved from the address index, and the per-task RNG
draws are synthesized the way gnpy computes physics over whole spectral
arrays instead of per-channel loops — as whole-shard vectorized
operations that reproduce the scalar streams bit for bit.

:func:`run_shard_columnar` is hooked into
:func:`repro.dataset.curation._shard_observations` (and therefore under
:func:`repro.exec.spec.run_shard_spec`, i.e. every backend and remote
workers).  It classifies every task's BAT walk from the city's address
index — straight lookups, flaky technical errors, the existing-customer
interstitial, and the walks a lookup miss starts: BQT's pick on a
suggestion page or an MDU unit picker, or a dead end — and synthesizes
the whole shard's observations without a browser session.  BQT's picks
are the workflow's own pure functions (:func:`repro.core.workflow.
pick_suggestion` and :func:`~repro.core.workflow.pick_unit`), so the
scalar engine and the fast path cannot diverge.  A shard with a task the
classifier cannot resolve runs whole through the untouched scalar
fleet.  Either way the shard is byte-identical to an all-scalar run,
which the golden-digest parity suite (``tests/test_columnar.py``) pins
with the fast path forced on and off.

RNG-equivalence argument (why the synthesis is bit-exact):

1. Per task, :meth:`repro.core.bqt.BroadbandQueryTool.query` announces a
   task boundary; the transport re-seeds the client's RTT stream from
   ``derive_seed(transport_seed, "task-rtt", isp, street, zip)`` and the
   BAT app its render-delay stream from ``derive_seed(app_seed,
   "delays", isp, street, zip)``.  Fresh generators per task mean a
   k-request task consumes draw indices ``0..k-1`` of each stream —
   independent of worker identity, politeness, or shard position.
   Here the shard's streams are seeded in one pass
   (:func:`repro.seeding.standard_normals`): the same seeds, derived
   from a once-hashed ``(seed, label, isp)`` prefix, go through numpy's
   ``SeedSequence`` hash and PCG64's seeding step as whole-array
   arithmetic, and one reused generator set to each state draws the
   task's ``k`` values.  That stays exact because numpy keeps a seed's
   ``SeedSequence``/``PCG64`` bit stream fixed across releases (NEP 19),
   and ``tests/test_seeding.py`` pins the computed states against
   ``np.random.PCG64(seed)`` itself, so a numpy that changed them fails
   loudly.
2. ``Generator.standard_normal(k)`` produces exactly the same values as
   k successive ``standard_normal()`` calls on the same generator (one
   sequential ziggurat stream either way).
3. ``np.exp`` on a float64 array applies the same ufunc kernel per
   element as the scalar calls, so ``base * np.exp(sigma * z)`` is
   bitwise equal elementwise to the per-request scalar arithmetic.
4. Elapsed time is an offset-free :class:`~repro.net.clock.VirtualClock`
   mark: the float sum of the request sleeps in order
   ``rtt/2, render, rtt/2`` per request, starting from 0.0 — replayed
   here as the identical sequence of Python float additions.  Render
   values cross the ``X-Render-Seconds`` header as ``str(float)`` and
   back, which round-trips exactly; the server-load multiplier is 1.0
   whenever the fleet is within server capacity (a fast-path gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..addresses.normalize import canonical_key
from ..bat import pages
from ..bat.profiles import BatProfile, profile_for
from ..core.parsing import plans_from_markup
from ..core.workflow import QueryStatus, pick_suggestion, pick_unit
from ..seeding import derive_seed, seed_deriver, standard_normals
from ..world import offer_resolver
from .records import AddressObservation, PlanObservation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..addresses.noise import NoisyAddress
    from ..isp.plans import Plan
    from ..world import CityWorld, WorldConfig
    from .curation import CurationConfig

__all__ = [
    "hash_address_ids",
    "run_shard_columnar",
    "columnar_cache_stats",
]


#: Mirrors the :class:`~repro.net.transport.InProcessTransport` default.
#: A fleet wider than this degrades render times (load multiplier > 1),
#: which the synthesis does not model — such shards run scalar.
_SERVER_CAPACITY = 1000


# ----------------------------------------------------------------------
# Batched address-id hashing
# ----------------------------------------------------------------------
def hash_address_ids(
    street_lines: Iterable[str],
    zip_codes: Iterable[str],
    salt: str,
) -> list[str]:
    """Batch form of :func:`repro.dataset.curation.hash_address_id`.

    Byte-identical output — the message is the same ``salt|street|zip``
    string.  SHA-256 itself dominates the cost, so the batch win is
    modest: the salt prefix is formatted once per shard instead of per
    address, and the tight comprehension hoists the constructor lookup.
    The microbench guard in ``benchmarks/test_cpu_path.py`` pins that
    this never runs slower than the scalar loop it replaces.
    """
    prefix = salt + "|"
    digest = sha256
    return [
        digest(f"{prefix}{street}|{zip5}".encode()).hexdigest()[:16]
        for street, zip5 in zip(street_lines, zip_codes)
    ]


# ----------------------------------------------------------------------
# Memoized plans-page observation
# ----------------------------------------------------------------------
@lru_cache(maxsize=512)
def _observed_plans(
    profile: BatProfile, plans: "tuple[Plan, ...]"
) -> tuple[PlanObservation, ...]:
    """What BQT records after scraping a plans page for ``plans``.

    The scalar path renders the full plans page (address line included)
    and parses it back.  The plan cells of that markup are independent
    of the address line — it appears only inside ``.service-address``,
    which the parser never reads — so one render+parse per distinct
    (profile, plan tuple) with a placeholder address reproduces the
    scraped values for every address sharing the offer tier.
    """
    markup = pages.render_plans(profile, "0 COLUMNAR PLACEHOLDER", list(plans))
    return tuple(
        PlanObservation.from_observed(p) for p in plans_from_markup(markup)
    )


def columnar_cache_stats() -> dict[str, object]:
    """Cache counters for the ``--profile-cpu`` report."""
    return {"columnar._observed_plans": _observed_plans.cache_info()}


# ----------------------------------------------------------------------
# Per-task classification
# ----------------------------------------------------------------------
# One classified fast-path task: the render-delay median of each request
# it makes, its terminal status and its recorded plans.
@dataclass(frozen=True)
class _FastTask:
    medians: tuple[float, ...]
    status: str
    plans: tuple[PlanObservation, ...]


def _classify(
    entry: "NoisyAddress",
    profile: BatProfile,
    flaky_seed: Callable[[str], int],
    existing_seed: Callable[[str], int],
    index,
    offers,
) -> _FastTask | None:
    """Resolve one task's BAT walk without executing it.

    Mirrors :meth:`repro.bat.app.BatApplication._resolve` exactly,
    including float arithmetic on the delay medians, and BQT's decisions
    on the pages a lookup miss renders.  Returns None for a walk it does
    not model: an empty street or ZIP (the BAT's empty-form page), or a
    picked address the index cannot resolve.  ``flaky_seed`` and
    ``existing_seed`` derive the app's per-address roll seeds,
    ``derive_seed(app_seed, label, key)``, from their hashed prefixes.
    """
    street = entry.street_line.strip()
    zip5 = entry.zip_code.strip()
    if not street or not zip5:
        return None

    medians = [profile.home_delay]

    def ended(status: str, plans: tuple[PlanObservation, ...] = ()) -> _FastTask:
        return _FastTask(tuple(medians), status, plans)

    def uniform(seed: int) -> float:
        return (seed % 10_000_000) / 10_000_000.0

    def flaky(key: str) -> bool:
        return uniform(flaky_seed(key)) < profile.flaky_error_rate

    # Flaky check first, keyed on the *queried* spelling — exactly the
    # server's order.
    key = canonical_key(street, zip5)
    if flaky(key):
        medians.append(profile.lookup_delay)
        return ended(QueryStatus.TECHNICAL_ERROR)
    found = index.lookup_canonical(key)
    if found is None:
        # A miss renders an MDU picker, a suggestion page or a dead end.
        # BQT picks from the page with the query it typed, and the pick's
        # POST re-enters the lookup on the chosen address.
        units = index.units_at(street, zip5)
        if units:
            medians.append(profile.lookup_delay + profile.interstitial_delay)
            chosen = units[pick_unit(entry.street_line, entry.zip_code, len(units))]
        else:
            medians.append(profile.lookup_delay)
            candidates = index.candidates(
                street, zip5, limit=profile.suggestion_limit
            )
            if not candidates:
                return ended(QueryStatus.NOT_FOUND)
            # Each entry as BQT reads it back from the rendered page:
            # escaped, parsed, and whitespace-normalized by full_text().
            texts = [
                " ".join(f"{c.street_line()}, {c.zip_code}".split())
                for c in candidates
            ]
            choice = pick_suggestion(entry.street_line, entry.zip_code, texts)
            if choice is None:
                return ended(QueryStatus.NO_SUGGESTION_MATCH)
            chosen = candidates[choice]
        key = canonical_key(chosen.street_line(), chosen.zip_code)
        if flaky(key):
            medians.append(profile.lookup_delay)
            return ended(QueryStatus.TECHNICAL_ERROR)
        found = index.lookup_canonical(key)
        if found is None:
            return None

    plans = offers(found)
    observed = _observed_plans(profile, plans) if plans else ()
    status = QueryStatus.PLANS if plans else QueryStatus.NO_SERVICE
    # The index files every address under its own canonical key, so `key`
    # is the key the server rolls the existing-customer draw on.
    if uniform(existing_seed(key)) < profile.existing_customer_rate:
        # lookup+interstitial, then the new-customer finish where the
        # lookup is not re-charged (0.0 + final render).
        medians.append(profile.lookup_delay + profile.interstitial_delay)
        medians.append(
            0.0 + profile.plans_delay
            if plans
            else 0.0 + profile.lookup_delay * 0.5
        )
    else:
        medians.append(
            profile.lookup_delay + profile.plans_delay
            if plans
            else profile.lookup_delay + profile.lookup_delay * 0.5
        )
    return ended(status, observed)


# ----------------------------------------------------------------------
# The fast-path shard replay
# ----------------------------------------------------------------------
def run_shard_columnar(
    world_config: "WorldConfig",
    city_world: "CityWorld",
    isp: str,
    config: "CurationConfig",
    tasks: "Sequence[NoisyAddress]",
) -> tuple[AddressObservation, ...] | None:
    """Replay one (city, ISP) shard through the columnar pipeline.

    Returns the shard's observations — byte-identical to the scalar
    fleet replay — or None when the whole shard must run scalar: pacing
    enabled, a fleet wide enough to trip the server-load multiplier, or
    a task whose walk the classifier cannot resolve.
    """
    if config.pacing_time_scale != 0.0:
        # Pacing exists to make wall time track virtual time; a path
        # that never sleeps would defeat it (bytes would match, the
        # scheduler benches would not).
        return None
    n_workers = min(config.effective_n_workers(isp), max(1, len(tasks)))
    if n_workers > _SERVER_CAPACITY:
        return None  # load multiplier > 1: synthesis does not model it

    from .curation import _city_address_index  # lazy: avoids a cycle

    city = city_world.info.name
    seed = world_config.seed
    profile = profile_for(isp)
    app_seed = derive_seed(seed, "bat", profile.isp)
    transport_seed = derive_seed(seed, "curation-transport", city, isp)
    latency = world_config.latency
    index = _city_address_index(world_config, city_world)
    offers = offer_resolver({city: city_world}, isp)

    flaky_seed = seed_deriver(app_seed, "flaky")
    existing_seed = seed_deriver(app_seed, "existing")
    fast: list[_FastTask] = []
    for entry in tasks:
        classified = _classify(
            entry, profile, flaky_seed, existing_seed, index, offers
        )
        if classified is None:
            return None
        fast.append(classified)

    counts = [len(t.medians) for t in fast]
    # Each k-request task consumes draws 0..k-1 of its own content-keyed
    # streams; standard_normals seeds every task's stream in one pass and
    # draws its k values, and the exp/multiply arithmetic is then one
    # whole-shard vector op.
    render_seed = seed_deriver(app_seed, "delays", isp)
    z_render = standard_normals(
        [render_seed(entry.street_line, entry.zip_code) for entry in tasks],
        counts,
    )
    spreads = np.exp(profile.render_sigma * z_render)

    rtts: np.ndarray | None = None
    if latency.base_rtt != 0.0:
        # base_rtt == 0 consumes no draw at all (sample_rtt
        # short-circuits), so the stream is only synthesized when the
        # scalar path would have drawn from it.
        rtt_seed = seed_deriver(transport_seed, "task-rtt", isp)
        z_rtt = standard_normals(
            [rtt_seed(entry.street_line, entry.zip_code) for entry in tasks],
            counts,
        )
        rtts = latency.base_rtt * np.exp(latency.sigma * z_rtt)

    spread_list = spreads.tolist()
    rtt_list = rtts.tolist() if rtts is not None else None
    elapsed: list[float] = []
    offset = 0
    for task in fast:
        # The virtual clock's offset-free mark: the same sequence of
        # float additions the per-request sleeps perform —
        # rtt/2, render (x a load multiplier of exactly 1.0), rtt/2.
        acc = 0.0
        for i, median in enumerate(task.medians, start=offset):
            half = rtt_list[i] / 2.0 if rtt_list is not None else 0.0
            render = round(median * spread_list[i], 3)
            acc += half
            acc += render
            acc += half
        elapsed.append(acc)
        offset += len(task.medians)

    address_ids = hash_address_ids(
        [entry.truth.street_line() for entry in tasks],
        [entry.truth.zip_code for entry in tasks],
        config.salt,
    )
    return tuple(
        AddressObservation(
            address_id=address_id,
            city=entry.city,
            block_group=entry.truth.block_group,
            isp=isp,
            status=task.status,
            plans=task.plans,
            elapsed_seconds=seconds,
        )
        for address_id, entry, task, seconds in zip(
            address_ids, tasks, fast, elapsed
        )
    )
