"""Chaos elasticity suite: real loopback workers leaving, crashing, and
joining mid-``map_specs``.

Where ``tests/test_membership.py`` pins the sans-I/O state machine under
a fake clock, this file pins the I/O shells around it: workers started
with ``--join`` register and heartbeat against a real
:class:`FleetCoordinator`, the elastic :class:`DistributedExecutor`
consumes the live directory, and every scenario ends with results
byte-identical to the serial reference — kill a worker mid-run, hot-add
one, lose heartbeats to injected faults, or leave gracefully.

Every test asserts thread hygiene on exit: every ``remote-*`` dispatcher
thread and ``fleet-*`` membership thread it started is gone once its
coordinator is stopped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.dataset.curation import shard_config_digest
from repro.errors import ConfigurationError, TransportError
from repro.exec import (
    DistributedExecutor,
    ShardSpec,
    build_executor,
    run_shard_spec,
    start_local_worker,
    stop_local_worker,
)
from repro.exec.membership import (
    FleetCoordinator,
    fleet_snapshot,
    shutdown_coordinators,
)
from repro.exec.remote import _await_worker_banner
from repro.settings import RunSettings
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


def _membership_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name.startswith("fleet-")
    ]


def _dispatcher_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name.startswith("remote-")
    ]


@pytest.fixture
def coordinator():
    """A fast-failure-detection coordinator on an OS-assigned port.

    Tuned hot (0.1s beats, dead after 1s) so death-detection scenarios
    resolve in about a second of wall time instead of the production
    five.  On exit, every ``fleet-*`` and ``remote-*`` thread the test
    started must be gone; threads alive before it (the process-wide
    coordinator of a suite run with an elastic ``REPRO_*`` environment)
    are not the test's.
    """
    before = set(_membership_threads() + _dispatcher_threads())
    coord = FleetCoordinator(
        port=0, heartbeat_interval=0.1, suspect_misses=3, dead_after=1.0
    ).start()
    yield coord
    coord.stop()
    assert [t for t in _membership_threads() if t not in before] == []
    assert [t for t in _dispatcher_threads() if t not in before] == []


def _join_args(coord: FleetCoordinator) -> list[str]:
    host, port = coord.address
    return ["--join", f"{host}:{port}"]


def _wait_for_fleet(coord: FleetCoordinator, n: int, timeout: float = 15.0):
    """Block until ``n`` workers are dispatchable; returns the snapshot."""
    directory = coord.directory
    deadline = time.monotonic() + timeout
    fleet = directory.dispatchable_workers()
    while len(fleet) < n and time.monotonic() < deadline:
        directory.wait_for_change(directory.version, timeout=0.2)
        fleet = directory.dispatchable_workers()
    assert len(fleet) >= n, f"only {len(fleet)}/{n} workers joined"
    return fleet


# ----------------------------------------------------------------------
# Steady state: join, dispatch, digest parity
# ----------------------------------------------------------------------
class TestElasticSteadyState:
    def test_joined_workers_register_and_beat(self, coordinator):
        proc = start_local_worker(width=3, extra_args=_join_args(coordinator))
        try:
            _await_worker_banner(proc, 60.0)
            (rec,) = _wait_for_fleet(coordinator, 1)
            assert rec.state == "live"
            assert rec.width == 3
            assert rec.incarnation == 1
            # Beats keep flowing on the coordinator's interval.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                rec = coordinator.directory.get(rec.worker_id)
                if rec.beats >= 2:
                    break
                time.sleep(0.05)
            assert rec.beats >= 2
            # The fleet RPC verb exposes the same view to outside tools.
            snapshot = fleet_snapshot(coordinator.address)
            assert [w["worker"] for w in snapshot] == [rec.worker_id]
        finally:
            stop_local_worker(proc)

    def test_map_specs_matches_serial_reference(self, coordinator):
        reference_cox, _ = run_shard_spec(_spec("cox"))
        reference_att, _ = run_shard_spec(_spec("att"))
        procs = [
            start_local_worker(width=2, extra_args=_join_args(coordinator))
            for _ in range(2)
        ]
        try:
            for proc in procs:
                _await_worker_banner(proc, 60.0)
            _wait_for_fleet(coordinator, 2)
            executor = DistributedExecutor(coordinator=coordinator)
            assert executor.width == 4
            outcomes = executor.map_specs(
                [_spec("cox"), _spec("att"), _spec("cox"), _spec("att")]
            )
        finally:
            for proc in procs:
                stop_local_worker(proc)
        assert [obs for obs, _wall in outcomes] == [
            reference_cox, reference_att, reference_cox, reference_att
        ]
        assert _dispatcher_threads() == []

    def test_last_result_ends_the_run_without_a_directory_wait(
        self, coordinator, monkeypatch
    ):
        """The reconcile loop wakes on results and re-reads the fleet
        every pass; it never parks on the directory, which would hold
        the last result back for a whole membership-wait timeout."""
        reference, _ = run_shard_spec(_spec("cox"))
        proc = start_local_worker(width=1, extra_args=_join_args(coordinator))
        try:
            _await_worker_banner(proc, 60.0)
            _wait_for_fleet(coordinator, 1)
            directory = coordinator.directory
            calls = []
            real_wait = directory.wait_for_change

            def counting_wait(version, timeout):
                calls.append(version)
                return real_wait(version, timeout)

            monkeypatch.setattr(directory, "wait_for_change", counting_wait)
            executor = DistributedExecutor(coordinator=coordinator)
            outcomes = executor.map_specs([_spec("cox")])
        finally:
            stop_local_worker(proc)
        assert calls == []
        assert [obs for obs, _wall in outcomes] == [reference]

    def test_elastic_mode_rejects_static_worker_list(self, coordinator):
        with pytest.raises(ConfigurationError, match="elastic"):
            DistributedExecutor(
                workers="127.0.0.1:7071", coordinator=coordinator
            )

    def test_empty_fleet_times_out_with_clear_error(self, coordinator):
        executor = DistributedExecutor(
            coordinator=coordinator, join_timeout=1.0
        )
        with pytest.raises(TransportError, match="no worker joined"):
            executor.map_specs([_spec("cox")])
        assert _dispatcher_threads() == []

    def test_unreachable_live_worker_fails_after_join_timeout(
        self, coordinator
    ):
        """A worker that heartbeats but advertises an address nobody
        serves is no fleet: its connections all exit, so the run fails
        after ``join_timeout`` instead of counting the worker forever."""
        directory = coordinator.directory
        directory.register("ghost", ("127.0.0.1", 1))
        stop = threading.Event()

        def beat():
            while not stop.wait(0.05):
                directory.heartbeat("ghost")

        executor = DistributedExecutor(
            coordinator=coordinator, join_timeout=1.0
        )
        errors: list[Exception] = []

        def run():
            try:
                executor.map_specs([_spec("cox")])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        beater = threading.Thread(target=beat, daemon=True)
        runner = threading.Thread(target=run, daemon=True)
        beater.start()
        runner.start()
        runner.join(timeout=5.0)
        stop.set()
        beater.join(timeout=5.0)
        assert not runner.is_alive(), "map_specs still running after 5 s"
        assert len(errors) == 1
        assert isinstance(errors[0], TransportError)
        assert "no worker joined" in str(errors[0])
        assert _dispatcher_threads() == []


# ----------------------------------------------------------------------
# Elasticity: crash, hot-add, graceful leave — mid-run
# ----------------------------------------------------------------------
class TestElasticity:
    def test_crash_mid_run_requeues_on_survivor(self, coordinator):
        """A worker that hard-crashes (``--crash-after``) mid-run is
        declared dead by missed beats; its in-flight specs are re-queued
        and the survivor completes the run byte-identically."""
        reference, _ = run_shard_spec(_spec("cox"))
        # --crash-after 0: the doomed worker dies on its first run_shard,
        # which it is sent as soon as it is enlisted.  A later crash point
        # is never reached if the survivor drains the queue first.
        doomed = start_local_worker(
            width=1, extra_args=_join_args(coordinator) + ["--crash-after", "0"]
        )
        survivor = start_local_worker(
            width=1, extra_args=_join_args(coordinator)
        )
        try:
            for proc in (doomed, survivor):
                _await_worker_banner(proc, 60.0)
            _wait_for_fleet(coordinator, 2)
            executor = DistributedExecutor(coordinator=coordinator)
            outcomes = executor.map_specs([_spec("cox") for _ in range(6)])
            assert all(obs == reference for obs, _wall in outcomes)
            # The hard path: exit 17 (os._exit mid-request), never "left".
            assert doomed.wait(timeout=15.0) == 17
            # ... and death by missed beats, once the detector's timeout
            # (1s here) elapses.  Crash must never record "left".
            deadline = time.monotonic() + 15.0
            states: list[str] = []
            while time.monotonic() < deadline:
                states = [
                    rec.state for rec in coordinator.directory.workers()
                ]
                if "dead" in states:
                    break
                time.sleep(0.05)
            assert sorted(states) == ["dead", "live"]
        finally:
            stop_local_worker(doomed)
            stop_local_worker(survivor)
        assert _dispatcher_threads() == []

    def test_hot_added_worker_joins_a_running_map(self, coordinator):
        """``map_specs`` started against an *empty* fleet completes once
        a late worker joins: elastic admission needs no restart."""
        reference, _ = run_shard_spec(_spec("att"))
        executor = DistributedExecutor(
            coordinator=coordinator, join_timeout=60.0
        )
        added: list = []

        def hot_add():
            time.sleep(0.5)  # let map_specs start against nothing
            proc = start_local_worker(
                width=2, extra_args=_join_args(coordinator)
            )
            added.append(proc)
            _await_worker_banner(proc, 60.0)

        joiner = threading.Thread(target=hot_add)
        joiner.start()
        try:
            outcomes = executor.map_specs([_spec("att") for _ in range(4)])
        finally:
            joiner.join(timeout=60.0)
            for proc in added:
                stop_local_worker(proc)
        assert all(obs == reference for obs, _wall in outcomes)
        assert _dispatcher_threads() == []

    def test_kill_and_hot_add_mid_run_digest_identical(self, coordinator):
        """The acceptance scenario: one worker crashes mid-run, another
        is hot-added mid-run, and the result is byte-identical to the
        serial reference."""
        reference, _ = run_shard_spec(_spec("cox"))
        doomed = start_local_worker(
            width=1, extra_args=_join_args(coordinator) + ["--crash-after", "2"]
        )
        steady = start_local_worker(
            width=1, extra_args=_join_args(coordinator)
        )
        added: list = []

        def hot_add():
            time.sleep(0.4)
            proc = start_local_worker(
                width=2, extra_args=_join_args(coordinator)
            )
            added.append(proc)
            _await_worker_banner(proc, 60.0)

        joiner = threading.Thread(target=hot_add)
        try:
            for proc in (doomed, steady):
                _await_worker_banner(proc, 60.0)
            _wait_for_fleet(coordinator, 2)
            executor = DistributedExecutor(coordinator=coordinator)
            joiner.start()
            outcomes = executor.map_specs([_spec("cox") for _ in range(8)])
        finally:
            if joiner.ident is not None:
                joiner.join(timeout=60.0)
            stop_local_worker(doomed)
            stop_local_worker(steady)
            for proc in added:
                stop_local_worker(proc)
        assert len(outcomes) == 8
        assert all(obs == reference for obs, _wall in outcomes)
        assert _dispatcher_threads() == []

    def test_graceful_exit_after_takes_the_left_path(self, coordinator):
        """``--exit-after`` now *deregisters* before exiting: the
        directory records ``left`` (not ``dead``), the exit code is 0
        (not 17), and the survivor still completes the run."""
        reference, _ = run_shard_spec(_spec("cox"))
        leaver = start_local_worker(
            width=1, extra_args=_join_args(coordinator) + ["--exit-after", "1"]
        )
        survivor = start_local_worker(
            width=1, extra_args=_join_args(coordinator)
        )
        try:
            for proc in (leaver, survivor):
                _await_worker_banner(proc, 60.0)
            _wait_for_fleet(coordinator, 2)
            executor = DistributedExecutor(coordinator=coordinator)
            outcomes = executor.map_specs([_spec("cox") for _ in range(6)])
            assert all(obs == reference for obs, _wall in outcomes)
            assert leaver.wait(timeout=15.0) == 0  # clean exit, not 17
            states = {
                rec.worker_id: rec.state
                for rec in coordinator.directory.workers()
            }
            assert sorted(states.values()) == ["left", "live"]
        finally:
            stop_local_worker(leaver)
            stop_local_worker(survivor)
        assert _dispatcher_threads() == []


# ----------------------------------------------------------------------
# Heartbeat loss: membership chaos without touching the data path
# ----------------------------------------------------------------------
class TestHeartbeatChaos:
    def test_run_survives_lossy_membership_link(self, coordinator):
        """Heartbeats dropped by an injected fault profile (on the
        membership link only) may flap the worker suspect/dead — the
        link re-registers, the dispatcher re-enlists the new
        incarnation, and the run still completes byte-identically."""
        reference, _ = run_shard_spec(_spec("cox"))
        lossy = start_local_worker(
            width=2,
            extra_args=_join_args(coordinator)
            + ["--join-fault-profile", "seed=11,drop=0.4"],
        )
        try:
            _await_worker_banner(lossy, 60.0)
            # A dropped register frame blocks the link for the full 2 s
            # call timeout before it retries, so at 40% bidirectional
            # loss the first accepted registration can take many
            # attempts — give it the same allowance as join_timeout.
            _wait_for_fleet(coordinator, 1, timeout=60.0)
            executor = DistributedExecutor(
                coordinator=coordinator, join_timeout=60.0
            )
            outcomes = executor.map_specs([_spec("cox") for _ in range(6)])
            assert all(obs == reference for obs, _wall in outcomes)
        finally:
            stop_local_worker(lossy)
        assert _dispatcher_threads() == []

    def test_dead_declared_worker_rejoins_with_new_incarnation(
        self, coordinator
    ):
        """A worker whose beats all vanish is declared dead; when its
        link heals it re-registers and the directory shows a bumped
        incarnation — the fake-clock rejoin scenario, on real sockets."""
        proc = start_local_worker(width=1, extra_args=_join_args(coordinator))
        try:
            _await_worker_banner(proc, 60.0)
            (rec,) = _wait_for_fleet(coordinator, 1)
            # Simulate total beat loss coordinator-side: force-forget is
            # too strong (the link would look unknown, same path); mark
            # dead via a synthetic sweep by rewinding last_beat.
            with coordinator.directory._cv:  # test-only reach-in
                coordinator.directory._records[rec.worker_id].last_beat -= 60.0
            coordinator.directory.sweep()
            assert coordinator.directory.get(rec.worker_id).state == "dead"
            # The worker's next beat is refused -> it re-registers.
            deadline = time.monotonic() + 15.0
            healed = None
            while time.monotonic() < deadline:
                healed = coordinator.directory.get(rec.worker_id)
                if healed.state == "live" and healed.incarnation == 2:
                    break
                time.sleep(0.05)
            assert healed is not None
            assert healed.state == "live"
            assert healed.incarnation == 2
        finally:
            stop_local_worker(proc)


# ----------------------------------------------------------------------
# Full pipeline + process-wide coordinator
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_elastic_curation_digest_matches_serial(coordinator):
    """Full curation through the elastic backend, with a mid-run crash
    and a hot-added replacement, produces the exact serial digest."""
    world = build_world(SMALL_WORLD_CONFIG)
    serial = CurationPipeline(world, SMALL_CONFIG).curate()
    doomed = start_local_worker(
        width=1, extra_args=_join_args(coordinator) + ["--crash-after", "1"]
    )
    added: list = []

    def hot_add():
        time.sleep(0.3)
        proc = start_local_worker(width=2, extra_args=_join_args(coordinator))
        added.append(proc)
        _await_worker_banner(proc, 60.0)

    joiner = threading.Thread(target=hot_add)
    try:
        _await_worker_banner(doomed, 60.0)
        _wait_for_fleet(coordinator, 1)
        executor = DistributedExecutor(coordinator=coordinator)
        joiner.start()
        elastic = CurationPipeline(
            world, SMALL_CONFIG, executor=executor
        ).curate()
    finally:
        joiner.join(timeout=60.0)
        stop_local_worker(doomed)
        for proc in added:
            stop_local_worker(proc)
    assert elastic.content_digest() == serial.content_digest()
    assert elastic.observations == serial.observations
    assert _dispatcher_threads() == []


def _free_coordinator_address() -> tuple[str, int]:
    coord = FleetCoordinator(port=0).start()
    address = coord.address
    coord.stop()  # free the port, keep the address
    return address


def test_ensure_coordinator_is_a_process_singleton(monkeypatch):
    """`--elastic` with no explicit coordinator shares one process-wide
    coordinator per bind address, so every executor in a run presents
    workers a single stable membership endpoint."""
    host, port = _free_coordinator_address()
    monkeypatch.setenv("REPRO_COORDINATOR", f"{host}:{port}")
    monkeypatch.setenv("REPRO_ELASTIC", "1")
    settings = replace(RunSettings.from_env(), backend="remote")
    try:
        first = build_executor(settings)
        second = build_executor(settings)
        assert first.elastic and second.elastic
        assert first.coordinator is second.coordinator
        assert first.coordinator.address == (host, port)
    finally:
        shutdown_coordinators()
    assert _membership_threads() == []


def test_elastic_env_does_not_hijack_explicit_static_fleets(monkeypatch):
    """REPRO_ELASTIC=1 must not flip an executor that was *given* a
    static worker list (CI exports the env process-wide; unit tests
    passing explicit fleets must stay static)."""
    monkeypatch.setenv("REPRO_ELASTIC", "1")
    executor = DistributedExecutor(workers="127.0.0.1:7071")
    assert executor.elastic is False
    with pytest.raises(ConfigurationError):
        DistributedExecutor(workers="")  # empty static fleet still fatal


def test_cli_flags_reach_executor_and_leave_environ_unchanged(monkeypatch):
    """The CLI's fleet flags travel in the resolved settings to the
    executor; nothing is published through ``os.environ``."""
    import argparse
    import os

    from repro.dataset.cli import add_backend_arguments, settings_from_args

    for name in (
        "REPRO_EXEC_BACKEND", "REPRO_REMOTE_WORKERS", "REPRO_ELASTIC",
        "REPRO_COORDINATOR",
    ):
        monkeypatch.delenv(name, raising=False)
    environ = dict(os.environ)
    parser = argparse.ArgumentParser()
    add_backend_arguments(parser)

    static = build_executor(
        settings_from_args(parser.parse_args(["--remote-workers", "127.0.0.1:7071"]))
    )
    assert static.name == "remote" and not static.elastic
    assert static.addresses == (("127.0.0.1", 7071),)

    host, port = _free_coordinator_address()
    args = parser.parse_args(["--elastic", "--coordinator", f"{host}:{port}"])
    try:
        elastic = build_executor(settings_from_args(args))
        assert elastic.elastic
        assert elastic.coordinator.address == (host, port)
    finally:
        shutdown_coordinators()
    assert dict(os.environ) == environ
    assert _membership_threads() == []

    conflicted = parser.parse_args(
        ["--elastic", "--remote-workers", "127.0.0.1:7071"]
    )
    with pytest.raises(SystemExit, match="elastic"):
        settings_from_args(conflicted)
