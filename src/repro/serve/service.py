"""The query service: admission → two-tier cache → deadline-checked curation.

:class:`ServeService` is the serving tier's business logic, shared by the
HTTP endpoint and by in-process tests.  One instance owns a built
world, a curation configuration, the two-tier
:class:`~repro.exec.cache.QueryResultCache`, and an executor backend;
each query resolves one (city, ISP) shard through the same
content-addressed path the batch curation pipeline uses, so a served
payload's digest is byte-identical to the serial curation run's.

The split matters for the bounded queue: the cheap sans-I/O
:meth:`ServeService.admit` runs first on the request's connection thread,
so the in-flight bound is enforced at the door — a refused request never
waits for a handler slot.  The heavy :meth:`ServeService.handle` then
runs on the same thread, pairs the admission accounting in a
``finally``, and returns the finished body bytes.  A shard's digest and row JSON are encoded once per content and
kept per (city, ISP), so a warm hit compares rows and splices the stored
JSON into a small envelope instead of re-serializing the shard.

Degradation ladder on a cache miss (what the admission
:class:`~repro.serve.admission.Decision` selects):

* **clear** — re-curate the shard: one ``map_specs`` call over at most
  the executor's width of chunk specs, the deadline checked once before
  it.  Under admission at most ``width`` such calls run at once; the
  other admitted misses wait for a slot (the admission queue), so a
  burst of misses never runs more curation threads than the controller
  priced.
* **precongestion** (``stale_first``) — serve the newest stale disk shard
  for the (city, ISP) if one exists, else re-curate.
* **overload** (``refuse_miss``) — stale or 503; no new curation work.

A :class:`~repro.serve.admission.CircuitBreaker` guards the executor
fallthrough: backend failures (a dead remote backend, a worker whose
handler fails) trip it open, and while open every miss degrades straight
to stale-or-503 instead of queueing on a backend that is down.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
from dataclasses import dataclass

from ..dataset.curation import (
    CurationConfig,
    _shard_tasks,
    curation_base_digest,
    shard_config_digest,
)
from ..errors import TransportError, UnknownCityError
from ..exec.cache import QueryResultCache, shard_cache_keys
from ..exec.schedule import chunk_spans
from ..exec.spec import ShardSpec, release_city_worlds, seed_city_worlds
from ..exec.store import ShardMeta, observation_to_dict
from ..net.clock import Clock, RealClock
from ..net.rpc import RpcRemoteError
from .admission import AdmissionController, CircuitBreaker, Deadline, Decision

__all__ = ["ServeResult", "ServeService", "shard_payload_digest"]


def shard_payload_digest(observations, rows: list | None = None) -> str:
    """Digest of a served shard payload: sha256 over canonical JSON rows.

    Built from the :func:`~repro.exec.store.observation_to_dict` rows the
    HTTP payload carries, in observation order — so a digest computed over
    a serial curation run's shard equals the digest of the served payload
    byte for byte.  This is the serving tier's correctness oracle.
    ``rows`` are those rows when the caller has built them already.
    """
    if rows is None:
        rows = [observation_to_dict(obs) for obs in observations]
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


@dataclass(frozen=True)
class _ShardInfo:
    """Memoized identity of one (city, ISP) shard."""

    digest: str
    tasks: tuple
    keys: tuple[str, ...]


@dataclass
class _EncodedShard:
    """One shard's payload, encoded once per content.

    ``rows`` is ``json.dumps`` of the observation rows, the one part of a
    200 body that grows with the shard; the digest and the rows come from
    one :func:`~repro.exec.store.observation_to_dict` pass.
    """

    observations: tuple
    digest: str
    rows: bytes

    @classmethod
    def encode(cls, observations: tuple) -> "_EncodedShard":
        rows = [observation_to_dict(obs) for obs in observations]
        return cls(
            observations,
            shard_payload_digest(observations, rows),
            json.dumps(rows).encode("utf-8"),
        )

    def body(self, city: str, isp: str, source: str) -> bytes:
        """``json.dumps`` of the full 200 body, as bytes.

        The envelope is dumped without its last key and the stored rows
        are spliced in where ``json.dumps`` would write them.
        """
        envelope = _json_body({
            "city": city,
            "isp": isp,
            "n_observations": len(self.observations),
            "digest": self.digest,
            "source": source,
        })
        return b"".join(
            (envelope[:-1], b', "observations": ', self.rows, b"}")
        )


@dataclass(frozen=True)
class ServeResult:
    """One query's outcome, transport-agnostic.

    The HTTP shell maps this onto a response: ``status`` + ``body`` (the
    finished JSON bytes, written unchanged), ``state`` into
    ``X-Repro-Congestion``, ``source`` into ``X-Repro-Source``,
    ``retry_after`` into ``Retry-After``.
    """

    status: int
    body: bytes
    state: str = "clear"
    source: str = ""
    retry_after: float | None = None


class ServeService:
    """Business logic of the serving tier (thread-safe).

    Args:
        world: A built :class:`~repro.world.World`.
        config: Curation knobs; must match the batch run whose digests
            the served payloads are compared against.
        cache: The two-tier result cache (memory + optional disk store).
        executor: Any :class:`~repro.exec.base.Executor`; cache misses
            re-curate through ``map_specs`` exactly like the pipeline.
        admission: The admission controller, or None for the
            no-admission baseline (everything admitted, nothing shed).
        breaker: Circuit breaker around the executor fallthrough.
        clock: Injectable time source (tests pass a
            :class:`~repro.net.clock.VirtualClock`).
    """

    def __init__(
        self,
        world,
        config: CurationConfig,
        cache: QueryResultCache,
        executor,
        admission: AdmissionController | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.world = world
        self.config = config
        self.cache = cache
        self.executor = executor
        self.admission = admission
        self.breaker = breaker or CircuitBreaker()
        self.clock: Clock = clock or RealClock()
        self._base_digest = curation_base_digest(world.config, config)
        self._shards: dict[tuple[str, str], _ShardInfo] = {}
        # At most one encoded payload per (city, ISP) resolved above.
        self._encodings: dict[tuple[str, str], _EncodedShard] = {}
        self._seeded: set[tuple] = set()
        self._lock = threading.Lock()
        self._breaker_lock = threading.Lock()
        # Curation slots: the admission controller prices a miss as
        # ``width`` concurrent services with ``queue_depth`` waiting, so
        # at most ``width`` dispatches run at once.  The baseline has no
        # bound: every request runs at once.
        self._slots = (
            threading.BoundedSemaphore(admission.config.width)
            if admission is not None
            else contextlib.nullcontext()
        )
        # Served-query counters by outcome (the /stats payload).
        self.served = {"cache": 0, "stale": 0, "executed": 0}
        self.deadline_exceeded = 0

    # ------------------------------------------------------------------
    # Admission (cheap; runs before any handler work)
    # ------------------------------------------------------------------
    def admit(self, client: str, isp: str, klass: str, now: float) -> Decision:
        """Admission verdict — permissive when running without admission."""
        if self.admission is None:
            return Decision(admitted=True, state="clear", reason="no-admission")
        return self.admission.decide(client, isp, klass, now)

    # ------------------------------------------------------------------
    # The query path (heavy; admission caps concurrent calls)
    # ------------------------------------------------------------------
    def handle(
        self,
        city: str,
        isp: str,
        decision: Decision,
        deadline: Deadline | None = None,
        force: bool = False,
    ) -> ServeResult:
        """Resolve one admitted (city, ISP) query to a result.

        ``force`` skips the cache lookup (the load benches use it to
        generate genuine curation work).  Pairs the admission accounting:
        when the decision was counted in-flight, exactly one ``finish``
        happens here, carrying the observed service time plus whether the
        request actually executed curation work — only executed costs
        feed the EWMA miss-cost estimate; everything else (hits, stale
        reads, refusals, 504s, errors) refunds its unspent admission
        charge instead.
        """
        started = self.clock.now()
        result: ServeResult | None = None
        try:
            result = self._handle(city, isp, decision, deadline, force)
            return result
        finally:
            if decision.counted and self.admission is not None:
                self.admission.finish(
                    self.clock.now() - started,
                    self.clock.now(),
                    charged=decision.charged,
                    executed=result is not None and result.source == "executed",
                )

    def _handle(
        self,
        city: str,
        isp: str,
        decision: Decision,
        deadline: Deadline | None,
        force: bool,
    ) -> ServeResult:
        state = decision.state
        try:
            info = self._shard_info(city, isp)
        except UnknownCityError:
            return ServeResult(
                404, _json_body({"error": f"unknown city: {city!r}"}), state=state
            )
        if info is None:
            return ServeResult(
                404,
                _json_body({"error": f"isp {isp!r} not deployed in {city!r}"}),
                state=state,
            )

        if not force:
            observations = self.cache.lookup_shard(info.keys)
            if observations is not None:
                self.served["cache"] += 1
                return self._payload(
                    city, isp, observations, source="cache", state=state
                )

        if decision.stale_first or decision.refuse_miss:
            stale = self._stale(city, isp, info)
            if stale is not None:
                self.served["stale"] += 1
                return self._payload(
                    city, isp, stale, source="stale", state=state
                )
            if decision.refuse_miss:
                return ServeResult(
                    503,
                    _json_body({"error": "overloaded and no stale shard available"}),
                    state=state,
                    retry_after=self._retry_hint(),
                )

        return self._execute(city, isp, info, state, deadline)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def healthz(self, now: float) -> dict:
        state = (
            "clear" if self.admission is None else self.admission.state(now)
        )
        return {"ok": True, "state": state, "breaker": self.breaker.state}

    def stats(self, now: float) -> dict:
        payload = {
            "served": dict(self.served),
            "deadline_exceeded": self.deadline_exceeded,
            "breaker": self.breaker.state,
            "cache": {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "shard_hits": self.cache.stats.shard_hits,
                "disk_shard_hits": self.cache.stats.disk_shard_hits,
            },
        }
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot(now)
        return payload

    def close(self) -> None:
        """Release the memoized city worlds this service seeded."""
        with self._lock:
            seeded, self._seeded = self._seeded, set()
        release_city_worlds(seeded)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _shard_info(self, city: str, isp: str) -> _ShardInfo | None:
        """Memoized (digest, tasks, keys) of a shard; None = unknown ISP.

        Raises UnknownCityError for an unknown city.  Also seeds the city
        world into the spec-runner memo so every chunk spec rehydrates
        instantly instead of rebuilding the city per dispatch.
        """
        key = (city, isp)
        with self._lock:
            cached = self._shards.get(key)
        if cached is not None:
            return cached
        city_world = self.world.city(city)  # raises UnknownCityError
        if isp not in city_world.info.isps:
            return None
        digest = shard_config_digest(
            self.world.config, self.config, city, isp, base=self._base_digest
        )
        tasks = _shard_tasks(
            city_world, isp, self.config.sampling, self.world.seed
        )
        keys = shard_cache_keys(
            isp, tasks, self.world.seed, self.world.config.scale, digest
        )
        info = _ShardInfo(digest=digest, tasks=tuple(tasks), keys=keys)
        with self._lock:
            self._shards[key] = info
            seed_key = (self.world.config, city)
            if seed_key not in self._seeded:
                seed_city_worlds({seed_key: city_world})
                self._seeded.add(seed_key)
        return info

    def _stale(self, city: str, isp: str, info: _ShardInfo):
        """Newest disk shard for (city, ISP) under this seed/scale, any digest."""
        store = self.cache.store
        if store is None:
            return None
        found = store.find_stale(
            city, isp, seed=self.world.seed, scale=self.world.config.scale
        )
        if found is None:
            return None
        observations, _meta = found
        return observations

    def _execute(
        self,
        city: str,
        isp: str,
        info: _ShardInfo,
        state: str,
        deadline: Deadline | None,
    ) -> ServeResult:
        """Re-curate the shard: one dispatch of at most ``width`` chunk specs.

        The deadline is checked once, before dispatch and after the
        request holds a curation slot.  A request whose budget ran out
        while it queued answers 504 without curating; a dispatched
        request runs to completion.
        """
        with self._breaker_lock:
            allowed = self.breaker.allow(self.clock.now())
        if not allowed:
            stale = self._stale(city, isp, info)
            if stale is not None:
                self.served["stale"] += 1
                return self._payload(
                    city, isp, stale, source="stale", state=state
                )
            return ServeResult(
                503,
                _json_body({"error": "curation backend unavailable (circuit open)"}),
                state=state,
                retry_after=self.breaker.reset_after_s,
            )

        n_tasks = len(info.tasks)
        width = max(1, int(getattr(self.executor, "width", 1)))
        spans = chunk_spans(n_tasks, max(1, -(-n_tasks // width)))
        specs = [
            ShardSpec(
                world=self.world.config,
                city=city,
                isp=isp,
                config=self.config,
                start=start,
                stop=stop,
                config_digest=info.digest,
                tasks=info.tasks[start:stop],
            )
            for start, stop in spans
        ]
        failure = None
        with self._slots:
            if deadline is not None and deadline.expired(self.clock.now()):
                self.deadline_exceeded += 1
                return ServeResult(
                    504,
                    _json_body({"error": "deadline exceeded before dispatch"}),
                    state=state,
                )
            try:
                chunks = self.executor.map_specs(specs)
            except (TransportError, OSError, RpcRemoteError) as exc:
                failure = exc
        if failure is not None:
            with self._breaker_lock:
                self.breaker.record_failure(self.clock.now())
            stale = self._stale(city, isp, info)
            if stale is not None:
                self.served["stale"] += 1
                return self._payload(
                    city, isp, stale, source="stale", state=state
                )
            return ServeResult(
                503,
                _json_body({"error": f"curation backend failed: {failure}"}),
                state=state,
                retry_after=self._retry_hint(),
            )

        with self._breaker_lock:
            self.breaker.record_success()
        observations = tuple(obs for chunk, _wall in chunks for obs in chunk)
        self.cache.store_shard(
            info.keys,
            observations,
            meta=ShardMeta(
                city=city,
                isp=isp,
                seed=self.world.seed,
                scale=self.world.config.scale,
                config_digest=info.digest,
            ),
        )
        self.served["executed"] += 1
        return self._payload(
            city, isp, observations, source="executed", state=state
        )

    def _payload(
        self, city: str, isp: str, observations, source: str, state: str
    ) -> ServeResult:
        encoded = self._encoded(
            (city, isp), tuple(observations), keep=source != "stale"
        )
        return ServeResult(
            200, encoded.body(city, isp, source), state=state, source=source
        )

    def _encoded(
        self, key: tuple[str, str], observations: tuple, keep: bool
    ) -> _EncodedShard:
        """The shard's encoded payload, encoded again only for new content.

        A memory hit returns the very row objects last encoded, so the
        comparison is one pointer check per row; rows a re-curation or a
        disk promotion rebuilt compare field by field once, and are then
        pinned so later hits are pointer checks again.  Stale reads
        (``keep`` false) never replace the entry: stale content would
        make the next hit encode again.
        """
        with self._lock:
            encoded = self._encodings.get(key)
        if encoded is not None and encoded.observations == observations:
            encoded.observations = observations
            return encoded
        encoded = _EncodedShard.encode(observations)
        if keep:
            with self._lock:
                self._encodings[key] = encoded
        return encoded

    def _retry_hint(self) -> float:
        if self.admission is not None:
            return max(self.admission.config.est_cost_s, 0.05)
        return 0.05
