"""The online serving tier: HTTP contract, degradation ladder, chaos.

Two layers of coverage, mirroring the dispatcher-service test style the
remote backend uses:

* **Subprocess contract suite** — a real ``python -m repro.dataset
  serve`` process, driven over real sockets: 200 warm hits whose payload
  digest is byte-identical to the serial curation path, 429 +
  ``Retry-After`` on rate-limit refusal, 503 batch shedding under
  (deterministically pinned) congestion, 504 on deadline expiry, and the
  same contract under a seeded fault profile.
* **In-process service tests** — :class:`ServeService` against fake
  executors and a :class:`VirtualClock` for the paths that need precise
  control: stale-from-disk degradation, circuit-breaker fallthrough,
  the deadline check before dispatch, and the no-admission baseline.
"""

from __future__ import annotations

import itertools
import json
import socket
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from repro.dataset.curation import CurationConfig, shard_config_digest
from repro.errors import TransportError
from repro.dataset.sampling import SamplingConfig
from repro.exec.base import Executor, resolve_executor
from repro.exec.cache import QueryResultCache
from repro.exec.remote import _await_worker_banner
from repro.exec.spec import ShardSpec, run_shard_spec
from repro.exec.store import DiskShardStore, observation_to_dict
from repro.net.clock import VirtualClock
from repro.net.rpc import RpcRemoteError
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    DatasetServeServer,
    Deadline,
    Decision,
    ServeClient,
    ServeService,
    shard_payload_digest,
)
from repro.serve import service as service_module

SERVE_WORLD = dict(seed=11, scale=0.02, cities="wichita")
SERVE_CURATION = dict(fraction=0.05, min_samples=3, workers=5)
CITY = "wichita"
ISP = "cox"


def _serial_digest(workers: int = SERVE_CURATION["workers"]) -> str:
    """The correctness oracle: the shard via the serial curation path."""
    return shard_payload_digest(_serial_observations(workers))


def _serial_observations(workers: int = SERVE_CURATION["workers"]) -> tuple:
    from repro.world import WorldConfig

    world_config = WorldConfig(
        seed=SERVE_WORLD["seed"], scale=SERVE_WORLD["scale"], cities=(CITY,)
    )
    config = CurationConfig(
        sampling=SamplingConfig(
            fraction=SERVE_CURATION["fraction"],
            min_samples=SERVE_CURATION["min_samples"],
        ),
        n_workers=workers,
    )
    digest = shard_config_digest(world_config, config, CITY, ISP)
    observations, _wall = run_shard_spec(
        ShardSpec(
            world=world_config, city=CITY, isp=ISP,
            config=config, config_digest=digest,
        )
    )
    return tuple(observations)


def _envelope(source: str, observations) -> bytes:
    """A 200 body as ``json.dumps`` of the whole envelope writes it."""
    return json.dumps({
        "city": CITY,
        "isp": ISP,
        "n_observations": len(observations),
        "digest": shard_payload_digest(observations),
        "source": source,
        "observations": [observation_to_dict(obs) for obs in observations],
    }).encode("utf-8")


# ----------------------------------------------------------------------
# Subprocess harness
# ----------------------------------------------------------------------
def start_serve_process(env, extra_args=(), timeout: float = 90.0):
    """Spawn ``python -m repro.dataset serve`` and wait for its banner.

    ``env`` is the child's environment (the ``child_env()`` fixture's).
    """
    # Every server starts cold and memory-only: the contract counts
    # executions, which a shared disk tier from an earlier test would skip.
    env = dict(env)
    env.pop("REPRO_CACHE_DIR", None)
    command = [
        sys.executable, "-m", "repro.dataset", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--seed", str(SERVE_WORLD["seed"]),
        "--scale", str(SERVE_WORLD["scale"]),
        "--cities", SERVE_WORLD["cities"],
        "--fraction", str(SERVE_CURATION["fraction"]),
        "--min-samples", str(SERVE_CURATION["min_samples"]),
        "--workers", str(SERVE_CURATION["workers"]),
    ] + list(extra_args)
    proc = subprocess.Popen(
        command, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        address = _await_worker_banner(proc, timeout)
    except Exception:
        proc.terminate()
        proc.wait(timeout=10.0)
        raise
    return proc, address


def stop_serve_process(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
        proc.kill()
        proc.wait(timeout=10.0)
    if proc.stdout is not None:
        proc.stdout.close()


@pytest.fixture(scope="module")
def serve_endpoint(child_env):
    """One strict (fault-free) serving process shared by contract tests."""
    proc, address = start_serve_process(
        child_env(), ["--fault-profile", "off"]
    )
    yield address
    stop_serve_process(proc)


# ----------------------------------------------------------------------
# HTTP contract (subprocess)
# ----------------------------------------------------------------------
class TestHttpContract:
    def test_warm_hit_200_with_serial_digest(self, serve_endpoint):
        with ServeClient(*serve_endpoint, client_id="warm") as client:
            first = client.query(CITY, ISP)
            assert first.status == 200
            body = json.loads(first.text())
            assert body["source"] == "executed"
            second = client.query(CITY, ISP)
            assert second.status == 200
            warm = json.loads(second.text())
        assert warm["source"] == "cache"
        assert second.header("X-Repro-Source") == "cache"
        assert second.header("X-Repro-Congestion") in (
            "clear", "precongestion", "overload"
        )
        # The acceptance criterion: served payloads are byte-identical to
        # the serial curation path, digest for digest.
        oracle = _serial_digest()
        assert body["digest"] == oracle
        assert warm["digest"] == oracle
        assert warm["n_observations"] == body["n_observations"] > 0

    def test_health_and_stats_endpoints(self, serve_endpoint):
        with ServeClient(*serve_endpoint, client_id="probe") as client:
            health = client.healthz()
            assert health.status == 200
            assert json.loads(health.text())["ok"] is True
            stats = client.stats()
            assert stats.status == 200
            payload = json.loads(stats.text())
        assert "admission" in payload and "served" in payload
        assert payload["admission"]["state"] in (
            "clear", "precongestion", "overload"
        )

    def test_unknown_city_404_and_missing_params_400(self, serve_endpoint):
        with ServeClient(*serve_endpoint, client_id="bad") as client:
            assert client.query("atlantis", ISP).status == 404
            assert client.query(CITY, "not-an-isp").status == 404
            assert client.get("/query?city=wichita").status == 400
            assert client.get(
                f"/query?city={CITY}&isp={ISP}&deadline_ms=nan"
            ).status == 400
            assert client.get("/nowhere").status == 404

    def test_deadline_exceeded_is_504(self, serve_endpoint):
        # deadline_ms=0 has expired by the time the request could
        # dispatch (the in-process test drives the clock precisely).
        with ServeClient(*serve_endpoint, client_id="hurried") as client:
            response = client.query(CITY, ISP, deadline_ms=0, force=True)
            assert response.status == 504
            # The connection survives a 504; a patient retry succeeds.
            assert client.query(CITY, ISP).status == 200


class TestRateLimiting:
    def test_client_rate_limit_429_with_retry_after(self, child_env):
        proc, address = start_serve_process(
            child_env(),
            ["--fault-profile", "off", "--rate", "1", "--burst", "2"]
        )
        try:
            with ServeClient(*address, client_id="greedy") as client:
                assert client.query(CITY, ISP).status == 200
                assert client.query(CITY, ISP).status == 200
                refused = client.query(CITY, ISP)
                assert refused.status == 429
                retry_after = refused.header("Retry-After")
                assert retry_after is not None and float(retry_after) > 0
                assert refused.header("X-Repro-Congestion") is not None
            # A different client identity has its own bucket.
            with ServeClient(*address, client_id="fresh") as other:
                assert other.query(CITY, ISP).status == 200
                # Health probes are never rate-limited.
                for _ in range(5):
                    assert other.healthz().status == 200
        finally:
            stop_serve_process(proc)


class TestCongestionShedding:
    def test_batch_is_shed_503_while_interactive_hits_survive(
        self, child_env
    ):
        # --est-cost 1000 makes the first admission flood the virtual
        # queue: the tier is deterministically in overload for hundreds
        # of seconds, with zero timing sensitivity.
        proc, address = start_serve_process(
            child_env(),
            ["--fault-profile", "off", "--est-cost", "1000",
             "--mark-delay", "0.5", "--shed-delay", "2.0"]
        )
        try:
            with ServeClient(*address, client_id="load") as client:
                warm = client.query(CITY, ISP)  # trips pre-congestion
                assert warm.status == 200
                shed = client.query(CITY, ISP, klass="batch")
                assert shed.status == 503
                assert shed.header("Retry-After") is not None
                assert json.loads(shed.text())["error"] == "shed-batch"
                assert shed.header("X-Repro-Congestion") in (
                    "precongestion", "overload"
                )
                # Interactive warm hits are still served under overload,
                # marked with the congestion state.
                hit = client.query(CITY, ISP)
                assert hit.status == 200
                assert hit.header("X-Repro-Congestion") in (
                    "precongestion", "overload"
                )
                assert json.loads(hit.text())["digest"] == _serial_digest()
        finally:
            stop_serve_process(proc)


class TestChaos:
    def test_contract_survives_seeded_server_faults(self, child_env):
        """The serving endpoint under the chaos profile: responses are
        dropped/duplicated/delayed, yet every eventually-served payload
        is byte-identical to the serial path."""
        proc, address = start_serve_process(
            child_env(),
            ["--fault-profile", "seed=1305,server.drop=0.15,server.duplicate=0.05"],
        )
        oracle = _serial_digest()
        served = 0
        try:
            client = ServeClient(*address, client_id="chaos", timeout=10.0)
            for _ in range(12):
                try:
                    response = client.query(CITY, ISP)
                except (TransportError, OSError):
                    client.close()
                    continue
                if response.status == 200:
                    body = json.loads(response.text())
                    assert body["digest"] == oracle
                    served += 1
            client.close()
        finally:
            stop_serve_process(proc)
        assert served >= 3  # loss is loss, but the tier keeps answering


# ----------------------------------------------------------------------
# In-process service tests (controllable clock, fake executors)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_world():
    from repro.world import WorldConfig, build_world

    return build_world(
        WorldConfig(
            seed=SERVE_WORLD["seed"], scale=SERVE_WORLD["scale"], cities=(CITY,)
        )
    )


def _config(workers: int = SERVE_CURATION["workers"]) -> CurationConfig:
    return CurationConfig(
        sampling=SamplingConfig(
            fraction=SERVE_CURATION["fraction"],
            min_samples=SERVE_CURATION["min_samples"],
        ),
        n_workers=workers,
    )


def _admitted(**overrides) -> Decision:
    defaults = dict(admitted=True, state="clear")
    defaults.update(overrides)
    return Decision(**defaults)


class _FailingExecutor(Executor):
    """Every dispatch dies with a transport error (a dead backend)."""

    name = "failing"
    max_workers = 2

    def map_specs(self, specs):
        raise TransportError("backend unreachable")


class _HandlerErrorExecutor(Executor):
    """Every dispatch fails like a worker whose handler answered 500."""

    name = "handler-error"
    max_workers = 2

    def map_specs(self, specs):
        raise RpcRemoteError("run_shard", 500, "handler exploded")


class _VariantExecutor(Executor):
    """Answers each call with the next of a few versions of the shard:
    each re-curation returns the next version's rows, in turn."""

    name = "variant"
    max_workers = 1

    def __init__(self, variants) -> None:
        self.variants = variants
        self._calls = itertools.count()

    def map_specs(self, specs):
        variant = self.variants[next(self._calls) % len(self.variants)]
        return [(variant[spec.start:spec.stop], 0.0) for spec in specs]


def _shifted(observations, shift: float) -> tuple:
    """New row objects, each elapsed time moved by ``shift``."""
    return tuple(
        replace(obs, elapsed_seconds=obs.elapsed_seconds + shift)
        for obs in observations
    )


def _count_digests(monkeypatch) -> list:
    """Records, from now on, each ``shard_payload_digest`` call the
    service makes."""
    calls = []
    digest = service_module.shard_payload_digest

    def counted(*args, **kwargs):
        calls.append(args)
        return digest(*args, **kwargs)

    monkeypatch.setattr(service_module, "shard_payload_digest", counted)
    return calls


class _ClockAdvancingExecutor(Executor):
    """Runs specs for real but charges 1 virtual second per call, and
    counts its calls — how the deadline tests make time pass without
    sleeping."""

    name = "ticking"
    max_workers = 1

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.calls = 0

    def map_specs(self, specs):
        self.calls += 1
        self.clock.sleep(1.0)
        return [run_shard_spec(spec) for spec in specs]


class _GatedExecutor(Executor):
    """Runs specs for real once its gate opens, and records how many
    calls were inside ``map_specs`` at once."""

    name = "gated"
    max_workers = 1

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self._lock = threading.Lock()
        self._running = 0
        self.peak = 0
        self.calls = 0

    def map_specs(self, specs):
        with self._lock:
            self.calls += 1
            self._running += 1
            self.peak = max(self.peak, self._running)
        self.entered.release()
        try:
            assert self.gate.wait(timeout=60.0)
            return [run_shard_spec(spec) for spec in specs]
        finally:
            with self._lock:
                self._running -= 1


class TestServeService:
    def test_stale_from_disk_when_config_digest_changes(self, serve_world, tmp_path):
        store = DiskShardStore(tmp_path / "store")
        # Populate the disk tier under the *old* configuration.
        old = ServeService(
            serve_world, _config(workers=5),
            cache=QueryResultCache(store=store),
            executor=resolve_executor("serial"),
        )
        fresh = old.handle(CITY, ISP, _admitted())
        assert fresh.status == 200 and fresh.source == "executed"
        old.close()
        # A new service with a different fleet size: every key misses,
        # but pre-congestion serves the stale shard instead of recurating.
        new = ServeService(
            serve_world, _config(workers=7),
            cache=QueryResultCache(store=store),
            executor=resolve_executor("serial"),
        )
        result = new.handle(CITY, ISP, _admitted(stale_first=True))
        assert result.status == 200
        assert result.source == "stale"
        assert json.loads(result.body)["digest"] == json.loads(fresh.body)["digest"]
        # Overload with no stale available refuses 503.
        refused = new.handle(
            CITY, "att", _admitted(stale_first=True, refuse_miss=True)
        )
        assert refused.status == 503
        assert refused.retry_after is not None
        new.close()

    def test_circuit_breaker_opens_and_degrades_to_503(self, serve_world):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=30.0)
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=_FailingExecutor(),
            breaker=breaker,
            clock=clock,
        )
        for _ in range(2):
            result = service.handle(CITY, ISP, _admitted())
            assert result.status == 503
        assert breaker.state == "open"
        # While open, misses fail fast without touching the executor.
        result = service.handle(CITY, ISP, _admitted())
        assert result.status == 503
        assert result.retry_after == pytest.approx(30.0)
        assert "circuit open" in json.loads(result.body)["error"]
        service.close()

    def test_breaker_recovery_after_reset_window(self, serve_world):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0)
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=resolve_executor("serial"),
            breaker=breaker,
            clock=clock,
        )
        breaker.record_failure(clock.now())
        assert breaker.state == "open"
        clock.sleep(6.0)  # past the reset window: the next call probes
        result = service.handle(CITY, ISP, _admitted())
        assert result.status == 200
        assert breaker.state == "closed"
        service.close()

    def test_deadline_passed_before_dispatch_is_504(self, serve_world):
        clock = VirtualClock()
        admission = AdmissionController(AdmissionConfig(width=2, queue_depth=1))
        executor = _ClockAdvancingExecutor(clock)
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=executor,
            admission=admission,
            clock=clock,
        )
        # Admitted, then queued past its budget before the handler ran.
        decision = service.admit("c", ISP, "interactive", clock.now())
        deadline = Deadline.after(clock.now(), 0.5)
        clock.sleep(1.0)
        est_cost = admission.snapshot(clock.now())["est_cost_s"]
        result = service.handle(CITY, ISP, decision, deadline=deadline)
        assert result.status == 504
        assert service.deadline_exceeded == 1
        assert executor.calls == 0
        assert service.cache.stats.stores == 0
        # A 504 ran no curation: it refunds its charge and leaves the
        # miss-cost estimate where it was.
        assert admission.snapshot(clock.now())["est_cost_s"] == est_cost
        # The deadline is checked only before dispatch: a request still
        # in budget then runs to completion, though the executor's 1 s
        # overshoots its 0.5 s.
        decision = service.admit("c", ISP, "interactive", clock.now())
        result = service.handle(
            CITY, ISP, decision, deadline=Deadline.after(clock.now(), 0.5)
        )
        assert result.status == 200 and executor.calls == 1
        assert service.cache.stats.stores > 0
        service.close()

    def test_misses_beyond_the_width_wait_for_a_slot(self, serve_world):
        """Admission prices ``width`` concurrent curations: admitted misses
        beyond it wait for a slot instead of running at once, and a
        budget that runs out while one waits answers 504 uncurated."""
        clock = VirtualClock()
        admission = AdmissionController(AdmissionConfig(width=1, queue_depth=2))
        executor = _GatedExecutor()
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=executor,
            admission=admission,
            clock=clock,
        )
        results = {}

        def drive(name: str, deadline: Deadline | None = None) -> None:
            decision = service.admit(name, ISP, "interactive", clock.now())
            results[name] = service.handle(
                CITY, ISP, decision, deadline=deadline, force=True
            )

        threads = [threading.Thread(target=drive, args=("first",))]
        threads[0].start()
        try:
            assert executor.entered.acquire(timeout=60.0)
            threads += [
                threading.Thread(
                    target=drive, args=("late", Deadline.after(clock.now(), 0.5))
                ),
                threading.Thread(target=drive, args=("patient",)),
            ]
            for thread in threads[1:]:
                thread.start()
            assert not executor.entered.acquire(timeout=0.2)
            clock.sleep(1.0)  # the late request's budget runs out as it waits
        finally:
            executor.gate.set()
            for thread in threads:
                thread.join(timeout=60.0)
        assert results["first"].status == 200
        assert results["patient"].status == 200
        assert results["late"].status == 504
        assert service.deadline_exceeded == 1
        assert executor.calls == 2 and executor.peak == 1
        assert admission.snapshot(clock.now())["inflight"] == 0
        service.close()

    def test_admission_accounting_pairs_finish(self, serve_world):
        clock = VirtualClock()
        admission = AdmissionController(AdmissionConfig(width=2, queue_depth=1))
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=resolve_executor("serial"),
            admission=admission,
            clock=clock,
        )
        decision = service.admit("c", ISP, "interactive", clock.now())
        assert decision.counted
        assert admission.snapshot(clock.now())["inflight"] == 1
        result = service.handle(CITY, ISP, decision)
        assert result.status == 200
        assert admission.snapshot(clock.now())["inflight"] == 0
        service.close()

    def test_no_admission_baseline_admits_everything(self, serve_world):
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=resolve_executor("serial"),
            admission=None,
        )
        for klass in ("interactive", "batch", "health"):
            decision = service.admit("anyone", ISP, klass, 0.0)
            assert decision.admitted and not decision.counted
            assert decision.state == "clear"
        service.close()

    def test_all_sources_agree_on_the_digest(self, serve_world, tmp_path):
        """executed, memory-cache, disk-cache, and stale reads of the
        same shard all carry the identical payload digest."""
        store = DiskShardStore(tmp_path / "store")
        cache = QueryResultCache(store=store)
        service = ServeService(
            serve_world, _config(),
            cache=cache,
            executor=resolve_executor("thread", max_workers=2),
        )
        executed = service.handle(CITY, ISP, _admitted())
        memory = service.handle(CITY, ISP, _admitted())
        cache.clear()  # drop the memory tier: next hit promotes from disk
        disk = service.handle(CITY, ISP, _admitted())
        stale = service.handle(CITY, ISP, _admitted(stale_first=True))
        digests = {
            json.loads(r.body)["digest"] for r in (executed, memory, disk, stale)
        }
        assert digests == {_serial_digest()}
        assert executed.source == "executed"
        assert memory.source == "cache" and disk.source == "cache"
        assert cache.stats.disk_shard_hits >= 1
        service.close()

    def test_deterministic_backend_failure_degrades_to_stale_or_503(
        self, serve_world, tmp_path
    ):
        store = DiskShardStore(tmp_path / "store")
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(store=store),
            executor=_HandlerErrorExecutor(),
        )
        refused = service.handle(CITY, ISP, _admitted())
        assert refused.status == 503
        assert refused.retry_after is not None
        assert "handler exploded" in json.loads(refused.body)["error"]
        # A shard curated under another fleet size is stale for this
        # service: the same failure now serves it.
        other = ServeService(
            serve_world, _config(workers=7),
            cache=QueryResultCache(store=store),
            executor=resolve_executor("serial"),
        )
        assert other.handle(CITY, ISP, _admitted()).status == 200
        other.close()
        stale = service.handle(CITY, ISP, _admitted())
        assert stale.status == 200
        assert stale.source == "stale"
        service.close()


class TestEncodeOnce:
    """A shard's payload is encoded once per content, byte for byte the
    ``json.dumps`` of its envelope."""

    def test_bodies_are_json_dumps_of_the_envelope(self, serve_world, tmp_path):
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(store=DiskShardStore(tmp_path / "store")),
            executor=resolve_executor("serial"),
        )
        executed = service.handle(CITY, ISP, _admitted())
        cached = service.handle(CITY, ISP, _admitted())
        stale = service.handle(
            CITY, ISP, _admitted(stale_first=True), force=True
        )
        oracle = _serial_observations()
        for result, source in (
            (executed, "executed"), (cached, "cache"), (stale, "stale")
        ):
            assert result.status == 200
            assert result.source == source
            assert result.body == _envelope(source, oracle)
        service.close()

    def test_recuration_with_new_content_is_served_on_the_next_hit(
        self, serve_world
    ):
        oracle = _serial_observations()
        shifted = _shifted(oracle, 1.0)
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=_VariantExecutor([oracle, shifted]),
        )
        first = service.handle(CITY, ISP, _admitted())
        assert first.body == _envelope("executed", oracle)
        forced = service.handle(CITY, ISP, _admitted(), force=True)
        hit = service.handle(CITY, ISP, _admitted())
        assert forced.body == _envelope("executed", shifted)
        assert hit.body == _envelope("cache", shifted)
        assert (
            json.loads(hit.body)["digest"] != json.loads(first.body)["digest"]
        )
        service.close()

    def test_repeat_hit_on_unchanged_shard_does_not_digest(
        self, serve_world, monkeypatch
    ):
        oracle = _serial_observations()
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            # The second version has equal content in new row objects.
            executor=_VariantExecutor([oracle, _shifted(oracle, 0.0)]),
        )
        service.handle(CITY, ISP, _admitted())
        first_hit = service.handle(CITY, ISP, _admitted())
        calls = _count_digests(monkeypatch)
        repeat = service.handle(CITY, ISP, _admitted())
        # A re-curation that returns equal rows reuses the encoding too.
        forced = service.handle(CITY, ISP, _admitted(), force=True)
        after = service.handle(CITY, ISP, _admitted())
        assert calls == []
        assert repeat.body == after.body == first_hit.body
        assert forced.source == "executed"
        service.close()

    def test_concurrent_hits_and_recurations_serve_consistent_bodies(
        self, serve_world
    ):
        """Pool threads share the per-shard encodings: every body's digest
        must still match its rows while re-curations swap the content."""
        variants = [
            _shifted(_serial_observations(), float(shift)) for shift in range(3)
        ]
        known = {
            shard_payload_digest(variant): [
                observation_to_dict(obs) for obs in variant
            ]
            for variant in variants
        }
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=_VariantExecutor(variants),
        )
        bodies, errors = [], []

        def drive() -> None:
            try:
                for i in range(40):
                    result = service.handle(
                        CITY, ISP, _admitted(), force=i % 4 == 0
                    )
                    bodies.append(result.body)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(bodies) == 8 * 40
        for body in bodies:
            payload = json.loads(body)
            assert payload["observations"] == known[payload["digest"]]
            assert payload["n_observations"] == len(payload["observations"])
        service.close()

    def test_stale_read_leaves_the_kept_encoding(
        self, serve_world, tmp_path, monkeypatch
    ):
        store = DiskShardStore(tmp_path / "store")
        oracle = _serial_observations()
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(store=store),
            executor=_VariantExecutor([oracle]),
        )
        service.handle(CITY, ISP, _admitted())
        # A newer shard with other content, curated under another config.
        other_rows = _shifted(oracle, 2.0)
        other = ServeService(
            serve_world, _config(workers=7),
            cache=QueryResultCache(store=store),
            executor=_VariantExecutor([other_rows]),
        )
        other.handle(CITY, ISP, _admitted())
        other.close()
        stale = service.handle(
            CITY, ISP, _admitted(stale_first=True), force=True
        )
        assert stale.body == _envelope("stale", other_rows)
        expected = _envelope("cache", oracle)
        calls = _count_digests(monkeypatch)
        assert service.handle(CITY, ISP, _admitted()).body == expected
        assert calls == []
        service.close()


class TestServerParameters:
    def test_bad_deadline_is_400_before_admission(self, serve_world):
        """A rejected deadline_ms must not hold an admission slot: three
        leaked slots would fill this width-2, depth-1 tier for good."""
        admission = AdmissionController(AdmissionConfig(width=2, queue_depth=1))
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=resolve_executor("serial"),
            admission=admission,
        )
        path = f"/query?city={CITY}&isp={ISP}&deadline_ms="
        with DatasetServeServer(service, fault_profile="off") as server:
            with ServeClient(*server.address, client_id="sloppy") as client:
                for raw in ("abc", "abc", "abc", "nan", "inf"):
                    assert client.get(path + raw).status == 400
                assert admission.snapshot(service.clock.now())["inflight"] == 0
                assert client.query(CITY, ISP).status == 200

    def test_connect_burst_beyond_64_waits_in_the_backlog(self, serve_world):
        """A burst of connects queues in the listen backlog before any is
        accepted.  A backlog the burst overflows drops SYNs, and each
        dropped client waits out a one-second retransmit."""
        service = ServeService(
            serve_world, _config(),
            cache=QueryResultCache(),
            executor=resolve_executor("serial"),
        )
        server = DatasetServeServer(service, fault_profile="off")  # not accepting
        clients = []
        try:
            for _ in range(100):
                clients.append(socket.create_connection(server.address, timeout=5.0))
        finally:
            for client in clients:
                client.close()
            server.stop()
        assert len(clients) == 100
