"""Distributed curation: spec wire format, the worker serve loop, the
DistributedExecutor dispatcher, worker-death re-queueing, worker-side
caching, and the ``cache ls`` inspection CLI.

Everything here runs against real loopback worker *processes* (spawned
via :func:`repro.exec.remote.local_worker_pool`), so the path under test
is the full one: spec -> JSON wire -> RPC -> world rebuild in a foreign
process -> disk-store-format blob -> coordinator decode.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.dataset.curation import shard_config_digest
from repro.errors import ConfigurationError, TransportError
from repro.exec import (
    DistributedExecutor,
    DiskShardStore,
    ShardSpec,
    local_worker_pool,
    parse_worker_addresses,
    run_shard_spec,
    spec_from_wire,
    spec_to_wire,
)
from repro.dataset.records import AddressObservation, PlanObservation
from repro.exec.remote import _await_worker_banner, _decode_run_reply
from repro.exec.store import STORE_VERSION, ShardMeta, decode_entry, encode_entry
from repro.exec.spec import SPEC_WIRE_VERSION
from repro.net import RpcClient
from repro.net.rpc import RpcRemoteError
from repro.world import WorldConfig, build_world

SMALL_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=5), n_workers=10
)
SMALL_WORLD_CONFIG = WorldConfig(seed=5, scale=0.05, cities=("wichita",))


def _spec(isp: str = "cox", **overrides) -> ShardSpec:
    digest = shard_config_digest(
        SMALL_WORLD_CONFIG, SMALL_CONFIG, "wichita", isp
    )
    defaults = dict(
        world=SMALL_WORLD_CONFIG,
        city="wichita",
        isp=isp,
        config=SMALL_CONFIG,
        start=0,
        stop=None,
        config_digest=digest,
    )
    defaults.update(overrides)
    return ShardSpec(**defaults)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestSpecWire:
    def test_roundtrip_preserves_equality_and_hash(self):
        config = SMALL_CONFIG.with_isp_override("cox", politeness_seconds=4.0)
        spec = _spec(config=config, start=3, stop=9)
        wire = json.loads(json.dumps(spec_to_wire(spec)))  # a real JSON trip
        back = spec_from_wire(wire)
        assert back == replace(spec, tasks=None)
        assert hash(back.world) == hash(spec.world)
        assert back.config == config
        assert back.config.effective_politeness("cox") == 4.0

    def test_tasks_never_cross_the_wire(self, tiny_world):
        book = tiny_world.city("new-orleans").book
        spec = replace(_spec(), tasks=tuple(book.feed[:3]))
        wire = spec_to_wire(spec)
        assert "tasks" not in wire
        assert spec_from_wire(wire).tasks is None

    def test_version_mismatch_rejected(self):
        wire = spec_to_wire(_spec())
        wire["version"] = SPEC_WIRE_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            spec_from_wire(wire)

    def test_malformed_wire_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_wire({"version": SPEC_WIRE_VERSION, "city": "x"})
        with pytest.raises(ConfigurationError):
            spec_from_wire("not a mapping")

    def test_parse_worker_addresses(self):
        assert parse_worker_addresses("a:1, b:2,") == (("a", 1), ("b", 2))
        assert parse_worker_addresses("") == ()
        with pytest.raises(ConfigurationError):
            parse_worker_addresses("no-port")
        with pytest.raises(ConfigurationError):
            parse_worker_addresses("host:banana")

    def test_executor_requires_a_fleet(self):
        with pytest.raises(ConfigurationError, match=">= 1 worker"):
            DistributedExecutor(workers="")


# ----------------------------------------------------------------------
# Worker reply decoding
# ----------------------------------------------------------------------
def _run_reply() -> dict:
    """A ``run_shard`` reply carrying two observations."""
    plan = PlanObservation(
        name="Gig", download_mbps=1000.0, upload_mbps=1000.0, monthly_price=80.0
    )
    observations = [
        AddressObservation(
            address_id=f"addr-{i}", city="wichita", block_group="bg-1",
            isp="att", status="plans", plans=(plan,), elapsed_seconds=2.5 + i,
        )
        for i in range(2)
    ]
    keys = [f"key-{i}" for i in range(2)]
    return {
        "entry": encode_entry(keys, observations, ShardMeta(city="wichita", isp="att")),
        "wall_seconds": 0.25,
        "cached": False,
    }


class TestRunReplyDecoding:
    """A worker reply is decoded under the store's type rule."""

    def test_decodes_rows_and_wall_time(self):
        observations, wall_seconds = _decode_run_reply(_run_reply())
        assert [obs.address_id for obs in observations] == ["addr-0", "addr-1"]
        assert observations[1].plans[0].download_mbps == 1000.0
        assert wall_seconds == 0.25

    @pytest.mark.parametrize(
        "path, value",
        [
            (("address_id", 1), None),
            (("status", 0, 0), 3),
            (("elapsed_seconds", 1), "2.5"),
            (("elapsed_seconds", 1), True),
            (("plans", 0, 0), {"name": "Gig"}),
            (("plans", 0, 0, 0, 0), ["Gig"]),
            (("plans", 0, 0, 0, 3), True),
            (("plans", 0, 0, 0), ["Gig", 1000.0, 1000.0]),
            (("plans", 1, 1), True),
            (("status", 1, 0), 1),
            (("city", 1, 1), -1),
            (("isp", 1, 0), 0.0),
            (("elapsed_seconds",), [2.5]),
            (("block_group", 1), [0]),
        ],
    )
    def test_wrong_typed_entry_raises_transport_error(self, path, value):
        reply = _run_reply()
        column = reply["entry"]["columns"]
        *parents, last = path
        for step in parents:
            column = column[step]
        column[last] = value
        with pytest.raises(TransportError, match="malformed run_shard reply"):
            _decode_run_reply(reply)

    @pytest.mark.parametrize("version", [1, STORE_VERSION + 1])
    def test_foreign_entry_version_raises_transport_error(self, version):
        """An entry of another version is refused, naming both versions,
        never decoded."""
        reply = _run_reply()
        reply["entry"]["version"] = version
        with pytest.raises(TransportError) as raised:
            _decode_run_reply(reply)
        message = str(raised.value)
        assert f"version {version}" in message
        assert f"version {STORE_VERSION}" in message

    @pytest.mark.parametrize(
        "value",
        ["300", True, None, [0.25], 10**400, "missing"],
        ids=["str", "bool", "null", "list", "int-too-large", "missing"],
    )
    def test_wrong_typed_wall_seconds_raises_transport_error(self, value):
        reply = _run_reply()
        if value == "missing":
            del reply["wall_seconds"]
        else:
            reply["wall_seconds"] = value
        with pytest.raises(TransportError, match="malformed run_shard reply"):
            _decode_run_reply(reply)


# ----------------------------------------------------------------------
# Worker serve loop (driven over raw RPC)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cached_worker(tmp_path_factory):
    """One loopback worker with a disk store of its own."""
    cache_dir = tmp_path_factory.mktemp("worker-store")
    with local_worker_pool(count=1, width=2, cache_dir=cache_dir) as addresses:
        yield addresses[0], cache_dir


class TestWorkerServeLoop:
    def test_ping_advertises_width_and_store(self, cached_worker):
        address, _cache_dir = cached_worker
        with RpcClient(address) as client:
            reply = client.call("ping")
        assert reply["ok"] is True
        assert reply["width"] == 2
        assert reply["store"] is True

    def test_run_shard_matches_local_execution(self, cached_worker):
        address, _cache_dir = cached_worker
        spec = _spec("att")
        local_observations, _wall = run_shard_spec(spec)
        with RpcClient(address) as client:
            reply = client.call("run_shard", {"spec": spec_to_wire(spec)})
        entry = reply["entry"]
        assert decode_entry(entry) == tuple(local_observations)
        assert entry["meta"]["city"] == "wichita"
        assert entry["meta"]["isp"] == "att"
        assert reply["cached"] is False
        assert reply["wall_seconds"] > 0.0

    def test_second_run_served_from_worker_store(self, cached_worker):
        address, cache_dir = cached_worker
        spec = _spec("cox")
        with RpcClient(address) as client:
            first = client.call("run_shard", {"spec": spec_to_wire(spec)})
            second = client.call("run_shard", {"spec": spec_to_wire(spec)})
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["entry"] == first["entry"]
        # A store hit executed nothing.
        assert second["wall_seconds"] == 0.0
        # And the blob on disk is addressable by the same keys.
        store = DiskShardStore(cache_dir)
        assert store.get(first["entry"]["keys"]) is not None

    def test_stats_counts_specs_and_hits(self, cached_worker):
        address, _cache_dir = cached_worker
        with RpcClient(address) as client:
            stats = client.call("stats")
        assert stats["specs_run"] >= 1
        assert stats["cache_hits"] >= 1
        assert stats["store_entries"] >= 1

    def test_malformed_spec_is_a_remote_error(self, cached_worker):
        address, _cache_dir = cached_worker
        with RpcClient(address) as client:
            with pytest.raises(RpcRemoteError):
                client.call("run_shard", {"spec": {"version": 999}})


def _dispatcher_threads() -> list[threading.Thread]:
    """Live dispatcher threads (map_specs must join them on every exit)."""
    return [
        t for t in threading.enumerate() if t.name.startswith("remote-")
    ]


# ----------------------------------------------------------------------
# Dispatcher: fan-out, re-queue on worker death, failure modes
# ----------------------------------------------------------------------
class TestDistributedDispatch:
    def test_specs_fan_out_and_return_in_order(self):
        with local_worker_pool(count=2, width=2) as addresses:
            executor = DistributedExecutor(workers=addresses)
            specs = [_spec("cox"), _spec("att"), _spec("cox"), _spec("att")]
            outcomes = executor.map_specs(specs)
        assert len(outcomes) == 4
        assert outcomes[0][0] == outcomes[2][0]
        assert outcomes[1][0] == outcomes[3][0]
        assert outcomes[0][0] != outcomes[1][0]

    def test_worker_death_requeues_on_survivor(self):
        """A worker that dies mid-request (answering nothing — the
        ``--crash-after`` hard path, as opposed to ``--exit-after``'s
        graceful drain) must have its in-flight spec re-queued on the
        surviving worker; the run completes with correct results."""
        reference, _ = run_shard_spec(_spec("cox"))
        # --crash-after 0: the doomed worker dies on its first run_shard,
        # which it is sent as soon as it is enlisted.  A later crash point
        # is never reached if the survivor drains the queue first, and the
        # worker then never dies for the width check below to see.
        with local_worker_pool(count=1, width=1) as survivor:
            with local_worker_pool(
                count=1, width=1, extra_args=("--crash-after", "0")
            ) as doomed:
                executor = DistributedExecutor(
                    workers=tuple(survivor) + tuple(doomed)
                )
                specs = [_spec("cox") for _ in range(6)]
                outcomes = executor.map_specs(specs)
            # The dead worker was deregistered from the executor's own
            # directory: later calls skip it and run on the survivor.
            assert executor.width == 1
            again = executor.map_specs([_spec("cox"), _spec("cox")])
        assert len(outcomes) == 6
        assert all(obs == reference for obs, _wall in outcomes)
        assert [obs for obs, _wall in again] == [reference, reference]
        # Regression: map_specs used to raise out of its wait loop without
        # joining the dispatcher threads, leaking a daemon (and its open
        # RpcClient socket) per worker connection on every chaotic run.
        assert _dispatcher_threads() == []

    def test_coordinator_side_failure_surfaces_instead_of_hanging(self):
        """A deterministic coordinator-side failure (here: a spec whose
        config cannot be wire-serialized) must propagate out of
        map_specs promptly — not strand the in-flight spec and spin the
        dispatch loop forever."""

        class NotAConfig:
            sampling = SMALL_CONFIG.sampling

            @staticmethod
            def effective_politeness(_isp):
                return 5.0

            pacing_time_scale = 0.0

        with local_worker_pool(count=1, width=2) as addresses:
            executor = DistributedExecutor(workers=addresses)
            bad = replace(_spec("cox"), config=NotAConfig())
            with pytest.raises(ConfigurationError, match="serializ"):
                executor.map_specs([_spec("att"), bad])
            # The error path must also join every dispatcher thread.
            assert _dispatcher_threads() == []

    def test_all_workers_dead_raises(self):
        with local_worker_pool(count=1, width=1) as addresses:
            executor = DistributedExecutor(workers=addresses)
            assert executor.width == 1  # learn the fleet while it is alive
        # The pool context has exited: every worker is gone.
        with pytest.raises(TransportError):
            executor.map_specs([_spec("cox")])

    def test_unreachable_fleet_raises_at_dispatch(self):
        executor = DistributedExecutor(workers="127.0.0.1:1")
        with pytest.raises(TransportError, match="no remote worker"):
            executor.map_specs([_spec("cox")])

    def test_empty_spec_list_is_trivially_empty(self):
        executor = DistributedExecutor(workers="127.0.0.1:1")
        assert executor.map_specs([]) == []


# ----------------------------------------------------------------------
# Chaos: injected frame loss, survived by resend and re-queue
# ----------------------------------------------------------------------
# Both directions lossy.  Loss only: a duplicated response would park in
# the keep-alive buffer and answer the next call on that connection.
CHAOS_SPEC = "seed=29,drop=0.05"


class TestChaosReliableDispatch:
    def test_raw_clients_survive_loss_by_requeueing(self):
        """Frame loss is survivable — at the cost of resends and
        re-queues — because shard specs are idempotent."""
        loss_only = "seed=31,drop=0.05"
        reference, _ = run_shard_spec(_spec("cox"))
        with local_worker_pool(
            count=2, width=1, extra_args=("--fault-profile", loss_only)
        ) as addresses:
            executor = DistributedExecutor(
                workers=addresses,
                fault_profile=loss_only,
            )
            outcomes = executor.map_specs([_spec("cox") for _ in range(4)])
        assert all(obs == reference for obs, _wall in outcomes)
        assert _dispatcher_threads() == []


@pytest.mark.slow
def test_chaos_golden_digest_at_five_percent_loss(tmp_path):
    """The acceptance bar: a full remote curation at 5% injected loss on
    both directions produces the exact digest the clean serial pipeline
    produces."""
    world = build_world(SMALL_WORLD_CONFIG)
    clean = CurationPipeline(world, SMALL_CONFIG).curate()
    with local_worker_pool(
        count=2, width=2, extra_args=("--fault-profile", CHAOS_SPEC)
    ) as addresses:
        executor = DistributedExecutor(
            workers=addresses, fault_profile=CHAOS_SPEC
        )
        chaotic = CurationPipeline(world, SMALL_CONFIG, executor=executor).curate()
    assert chaotic.content_digest() == clean.content_digest()
    assert chaotic.observations == clean.observations


class TestWorkerChaosCli:
    def test_bad_fault_profile_spec_fails_fast(self, child_env):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.dataset", "worker",
                "--port", "0", "--fault-profile", "banana=0.1",
            ],
            env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "banana" in result.stderr

    def test_off_spec_accepted(self):
        with local_worker_pool(
            count=1, width=1, extra_args=("--fault-profile", "off")
        ) as addresses:
            with RpcClient(addresses[0]) as client:
                assert client.call("ping")["ok"] is True


# ----------------------------------------------------------------------
# Coordinator + worker sharing one cache root
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_shared_cache_root_with_workers(tmp_path):
    """Coordinator and workers may point at one store root: worker blobs
    land in it, the coordinator's own store writes land in it, and the
    manifest (lock-merged) tracks the union."""
    from repro.exec import QueryResultCache

    root = tmp_path / "shared"
    world = build_world(SMALL_WORLD_CONFIG)
    with local_worker_pool(count=2, width=2, cache_dir=root) as addresses:
        pipeline = CurationPipeline(
            world,
            SMALL_CONFIG,
            executor=DistributedExecutor(workers=addresses),
            cache=QueryResultCache(store=DiskShardStore(root)),
        )
        dataset = pipeline.curate()
        assert pipeline.last_run.executed_shards == 2
    serial = CurationPipeline(world, SMALL_CONFIG).curate()
    assert dataset.observations == serial.observations
    # Reopen the root: every shard entry is in the merged manifest.
    store = DiskShardStore(root)
    assert len(store) == 2
    cities = {(entry.meta.city, entry.meta.isp) for entry in store.entries()}
    assert cities == {("wichita", "att"), ("wichita", "cox")}


# ----------------------------------------------------------------------
# cache ls CLI
# ----------------------------------------------------------------------
class TestCacheLsCli:
    def test_lists_entries(self, tmp_path, child_env):
        from repro.exec import ShardMeta
        from repro.dataset.records import AddressObservation

        store = DiskShardStore(tmp_path / "store")
        observations = [
            AddressObservation(
                address_id=f"a{i}", city="wichita", block_group="bg",
                isp="cox", status="plans", plans=(), elapsed_seconds=1.0,
            )
            for i in range(3)
        ]
        store.put(
            [f"key-{i}" for i in range(3)],
            observations,
            meta=ShardMeta(
                city="wichita", isp="cox", seed=5, scale=0.05,
                config_digest="deadbeef00",
            ),
        )

        result = subprocess.run(
            [
                sys.executable, "-m", "repro.dataset", "cache", "ls",
                "--cache-dir", str(tmp_path / "store"),
            ],
            env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "wichita" in out and "cox" in out
        assert "deadbeef" in out
        assert "total: 1 entries" in out

    def test_missing_root_errors(self, tmp_path, child_env):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.dataset", "cache", "ls",
                "--cache-dir", str(tmp_path / "nope"),
            ],
            env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "no store at" in result.stderr


# ----------------------------------------------------------------------
# Launch banners
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["worker", "--port", "0"],
        ["serve", "--port", "0", "--scale", "0.02", "--cities", "wichita",
         "--min-samples", "5", "--prewarm", "--fault-profile", "off"],
    ],
    ids=["worker", "serve"],
)
def test_banner_is_the_first_stdout_line(argv, child_env):
    """Each launcher's banner is the first line the child writes on
    stdout, so a launcher reading only until the banner never has to
    look past another line; ``_await_worker_banner`` also finds a
    banner that arrives in one read after an earlier line (see the
    next test)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.dataset", *argv],
        env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        assert ready, "nothing on stdout within 120 s"
        assert " listening on " in proc.stdout.readline()
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)
        proc.stdout.close()


def test_banner_after_a_line_in_the_same_read_is_found():
    """A progress line and the banner arriving in one read: the wait
    splits lines itself, so the banner is not stranded in a reader's
    buffer where ``select`` cannot see it."""
    script = (
        "import sys, time\n"
        "sys.stdout.write('progress\\n'\n"
        "                 'repro worker pid 1 listening on 127.0.0.1:4321\\n')\n"
        "sys.stdout.flush()\n"
        "time.sleep(30)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        assert _await_worker_banner(proc, 3.0) == ("127.0.0.1", 4321)
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)
        proc.stdout.close()


class TestBusyWorkerBackoff:
    """A worker refusing calls beyond ``--max-inflight`` answers 503 +
    Retry-After; the dispatcher must back off and re-queue the refused
    spec at the *back* of the line — not hammer the front — and the run
    must still complete with byte-identical results."""

    def test_overcommitted_worker_completes_via_backoff(self):
        reference = {
            isp: run_shard_spec(_spec(isp))[0] for isp in ("cox", "att")
        }
        # width 2 advertised, but only 1 call admitted at a time: the
        # coordinator's second dispatch thread is guaranteed to hit the
        # busy refusal whenever both are in flight.
        with local_worker_pool(
            count=1, width=2, extra_args=("--max-inflight", "1")
        ) as addresses:
            executor = DistributedExecutor(workers=addresses)
            specs = [_spec("cox"), _spec("att"), _spec("cox"), _spec("att")]
            outcomes = executor.map_specs(specs)
        assert len(outcomes) == len(specs)
        for spec, (observations, _wall) in zip(specs, outcomes):
            assert observations == reference[spec.isp]
