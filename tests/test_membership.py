"""Fake-clock membership state-machine suite.

Every transition of the heartbeat/suspicion state machine — join,
missed-beat suspicion, death, flapping, graceful leave, rejoin with an
incarnation bump — is driven purely by explicit calls and
``VirtualClock`` advances: the sans-I/O :class:`FleetDirectory` never
sleeps and never opens a socket, so this whole file runs with **zero
real sleeps** (``test_no_real_sleeps_in_this_suite`` pins it).

The hypothesis property at the bottom is the failure detector's safety
contract: no interleaving of beats and clock advances may declare a
worker dead while its latest beat is within ``dead_after``.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.exec.membership import (
    DEFAULT_COORDINATOR,
    FleetDirectory,
    parse_coordinator_address,
    worker_identity,
)
from repro.net.clock import VirtualClock
from repro.settings import RunSettings

ADDR = ("127.0.0.1", 7171)


def _directory(**overrides) -> tuple[FleetDirectory, VirtualClock]:
    clock = VirtualClock()
    defaults = dict(
        clock=clock, heartbeat_interval=1.0, suspect_misses=3, dead_after=10.0
    )
    defaults.update(overrides)
    return FleetDirectory(**defaults), clock


# ----------------------------------------------------------------------
# Construction + config validation
# ----------------------------------------------------------------------
class TestConfig:
    def test_dead_after_must_exceed_suspect_window(self):
        with pytest.raises(ConfigurationError, match="suspect window"):
            FleetDirectory(
                heartbeat_interval=1.0, suspect_misses=3, dead_after=3.0
            )

    def test_interval_and_misses_validated(self):
        with pytest.raises(ConfigurationError):
            FleetDirectory(heartbeat_interval=0.0)
        with pytest.raises(ConfigurationError):
            FleetDirectory(suspect_misses=0)

    def test_register_rejects_bad_width(self):
        directory, _ = _directory()
        with pytest.raises(ConfigurationError, match="width"):
            directory.register("w", ADDR, width=0)

    def test_parse_coordinator_address(self):
        assert parse_coordinator_address("h:7070") == ("h", 7070)
        with pytest.raises(ConfigurationError):
            parse_coordinator_address("no-port")
        with pytest.raises(ConfigurationError):
            parse_coordinator_address("h:banana")

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_ELASTIC", raising=False)
        monkeypatch.delenv("REPRO_COORDINATOR", raising=False)
        assert RunSettings.from_env().elastic is False
        assert RunSettings.from_env().coordinator == parse_coordinator_address(
            DEFAULT_COORDINATOR
        )
        monkeypatch.setenv("REPRO_ELASTIC", "1")
        monkeypatch.setenv("REPRO_COORDINATOR", "10.0.0.9:9999")
        assert RunSettings.from_env().elastic is True
        assert RunSettings.from_env().coordinator == ("10.0.0.9", 9999)

    def test_worker_identity_shape(self):
        assert worker_identity("h", 7071, pid=42) == "h:7071/42"


# ----------------------------------------------------------------------
# Join / heartbeat / suspect / dead — the happy and unhappy paths
# ----------------------------------------------------------------------
class TestTransitions:
    def test_register_admits_live_worker(self):
        directory, _ = _directory()
        rec = directory.register("w1", ADDR, width=4, has_store=True, pid=9)
        assert rec.state == "live"
        assert rec.incarnation == 1
        assert rec.dispatchable
        assert directory.dispatchable_workers() == (directory.get("w1"),)

    def test_beats_within_window_keep_worker_live(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        for _ in range(50):
            clock.sleep(1.0)
            assert directory.heartbeat("w1") == "live"
            assert directory.sweep() == []
        assert directory.get("w1").state == "live"

    def test_missed_beats_turn_live_suspect(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        clock.sleep(2.999)
        assert directory.sweep() == []  # just inside the suspect window
        clock.sleep(0.001)
        assert directory.sweep() == [("w1", "live", "suspect")]
        rec = directory.get("w1")
        assert rec.state == "suspect"
        assert rec.dispatchable  # suspicion is a hint, not a verdict

    def test_silence_past_timeout_is_death(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        clock.sleep(10.0)
        transitions = directory.sweep()
        assert ("w1", "live", "dead") in transitions
        rec = directory.get("w1")
        assert rec.state == "dead"
        assert not rec.dispatchable

    def test_suspect_then_dead_two_sweeps(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        clock.sleep(4.0)
        assert directory.sweep() == [("w1", "live", "suspect")]
        clock.sleep(6.0)
        assert directory.sweep() == [("w1", "suspect", "dead")]

    def test_sweep_is_idempotent_at_one_instant(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        clock.sleep(10.0)
        assert directory.sweep() != []
        assert directory.sweep() == []

    def test_flapping_suspect_heals_to_live_on_beat(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        for _ in range(5):  # flap repeatedly: suspect, beat, suspect...
            clock.sleep(4.0)
            assert directory.sweep() == [("w1", "live", "suspect")]
            assert directory.heartbeat("w1") == "live"
            assert directory.get("w1").state == "live"

    def test_beat_from_dead_worker_is_refused(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        clock.sleep(10.0)
        directory.sweep()
        assert directory.heartbeat("w1") is None  # must re-register
        assert directory.get("w1").state == "dead"

    def test_beat_from_unknown_worker_is_refused(self):
        directory, _ = _directory()
        assert directory.heartbeat("ghost") is None


# ----------------------------------------------------------------------
# Graceful leave vs crash — distinct paths
# ----------------------------------------------------------------------
class TestLeaveVsDeath:
    def test_deregister_takes_the_left_path(self):
        directory, _ = _directory()
        directory.register("w1", ADDR)
        assert directory.deregister("w1") is True
        rec = directory.get("w1")
        assert rec.state == "left"
        assert not rec.dispatchable
        assert directory.heartbeat("w1") is None  # left refuses beats too

    def test_left_workers_never_become_dead(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        directory.deregister("w1")
        clock.sleep(100.0)
        assert directory.sweep() == []  # leave is terminal, not a timer
        assert directory.get("w1").state == "left"

    def test_deregister_unknown_is_false(self):
        directory, _ = _directory()
        assert directory.deregister("ghost") is False

    def test_forget_drops_the_record(self):
        directory, _ = _directory()
        directory.register("w1", ADDR)
        directory.forget("w1")
        assert directory.get("w1") is None
        assert directory.workers() == ()


# ----------------------------------------------------------------------
# Rejoin: re-registration bumps the incarnation
# ----------------------------------------------------------------------
class TestRejoin:
    def test_rejoin_after_death_bumps_incarnation(self):
        directory, clock = _directory()
        first = directory.register("w1", ADDR, width=2)
        clock.sleep(10.0)
        directory.sweep()
        second = directory.register("w1", ADDR, width=4)
        assert second.incarnation == first.incarnation + 1
        assert second.state == "live"
        assert second.width == 4
        assert second.beats == 0
        assert directory.heartbeat("w1") == "live"

    def test_rejoin_after_leave_bumps_incarnation(self):
        directory, _ = _directory()
        directory.register("w1", ADDR)
        directory.deregister("w1")
        rec = directory.register("w1", ADDR)
        assert rec.incarnation == 2
        assert rec.state == "live"

    def test_reregister_while_live_bumps_too(self):
        # A worker that restarted faster than the failure detector
        # noticed: the old serve loop is gone either way.
        directory, _ = _directory()
        directory.register("w1", ADDR)
        rec = directory.register("w1", ADDR)
        assert rec.incarnation == 2

    def test_rejoined_worker_ages_from_its_new_beat(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        clock.sleep(10.0)
        directory.sweep()
        directory.register("w1", ADDR)
        clock.sleep(2.0)  # inside the fresh suspect window
        assert directory.sweep() == []
        assert directory.get("w1").state == "live"


# ----------------------------------------------------------------------
# Change feed: version bumps + snapshot isolation
# ----------------------------------------------------------------------
class TestChangeFeed:
    def test_every_transition_bumps_version(self):
        directory, clock = _directory()
        v0 = directory.version
        directory.register("w1", ADDR)
        v1 = directory.version
        assert v1 > v0
        clock.sleep(4.0)
        directory.sweep()  # suspect
        v2 = directory.version
        assert v2 > v1
        directory.heartbeat("w1")  # heals: suspect -> live
        v3 = directory.version
        assert v3 > v2
        directory.deregister("w1")
        assert directory.version > v3

    def test_plain_beat_does_not_bump_version(self):
        # Beats are the steady-state; waking the dispatcher for each one
        # would turn wait_for_change into a busy loop.
        directory, _ = _directory()
        directory.register("w1", ADDR)
        version = directory.version
        assert directory.heartbeat("w1") == "live"
        assert directory.version == version

    def test_wait_for_change_returns_immediately_on_stale_version(self):
        directory, _ = _directory()
        directory.register("w1", ADDR)
        # Stale version: must not block at all (timeout would dominate).
        assert directory.wait_for_change(0, timeout=30.0) == directory.version

    def test_wait_for_change_wakes_on_transition(self):
        directory, _ = _directory()
        version = directory.version
        seen = []

        def waiter():
            seen.append(directory.wait_for_change(version, timeout=30.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        directory.register("w1", ADDR)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert seen == [directory.version]

    def test_snapshots_are_copies(self):
        directory, _ = _directory()
        directory.register("w1", ADDR)
        snap = directory.get("w1")
        snap.state = "dead"  # mutating the copy must not leak in
        assert directory.get("w1").state == "live"


# ----------------------------------------------------------------------
# Multi-worker: transitions are independent
# ----------------------------------------------------------------------
class TestFleet:
    def test_only_silent_workers_transition(self):
        directory, clock = _directory()
        directory.register("w1", ADDR)
        directory.register("w2", ("127.0.0.1", 7172))
        for _ in range(12):
            clock.sleep(1.0)
            directory.heartbeat("w2")
            directory.sweep()
        assert directory.get("w1").state == "dead"
        assert directory.get("w2").state == "live"
        assert [rec.worker_id for rec in directory.dispatchable_workers()] == [
            "w2"
        ]

    def test_workers_sorted_by_id(self):
        directory, _ = _directory()
        directory.register("b", ADDR)
        directory.register("a", ("127.0.0.1", 7172))
        assert [rec.worker_id for rec in directory.workers()] == ["a", "b"]


# ----------------------------------------------------------------------
# Safety property: beats within the timeout are never death
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("advance"), st.floats(0.01, 6.0)),
            st.tuples(st.just("beat"), st.just(0.0)),
            st.tuples(st.just("sweep"), st.just(0.0)),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_never_dead_within_the_timeout(script):
    """No interleaving of beats, advances, and sweeps declares a worker
    dead while its latest *accepted* beat is within ``dead_after``."""
    directory, clock = _directory(
        heartbeat_interval=1.0, suspect_misses=3, dead_after=10.0
    )
    directory.register("w", ADDR)
    last_accepted_beat = clock.now()
    for op, value in script:
        if op == "advance":
            clock.sleep(value)
        elif op == "beat":
            if directory.heartbeat("w") is not None:
                last_accepted_beat = clock.now()
        else:
            directory.sweep()
        rec = directory.get("w")
        if clock.now() - last_accepted_beat < directory.dead_after:
            assert rec.state != "dead", (
                f"declared dead {clock.now() - last_accepted_beat:.3f}s "
                f"after an accepted beat (dead_after="
                f"{directory.dead_after})"
            )
        # And liveness's mirror: a sweep at/past the timeout must kill.
        if (
            op == "sweep"
            and clock.now() - last_accepted_beat >= directory.dead_after
        ):
            assert rec.state == "dead"


def test_no_real_sleeps_in_this_suite():
    """The whole suite drives a VirtualClock: no ``time.sleep`` call may
    appear in this file (the zero-real-sleeps acceptance criterion)."""
    import re
    from pathlib import Path

    source = Path(__file__).read_text()
    assert re.search(r"\btime\.sleep\(", source) is None
