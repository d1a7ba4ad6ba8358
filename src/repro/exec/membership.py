"""Fleet membership: registration, heartbeats, failure detection.

A :class:`FleetDirectory` is the one view of the fleet the remote
dispatcher reads — a latency/state dissemination layer in the spirit of
GLIDS (PAPERS.md §Related work) informing placement:

* workers **register** with the coordinator (announcing their serve
  address, width, and whether they carry a warm disk store), then
  **heartbeat** on the interval the coordinator hands back;
* the coordinator's :class:`FleetDirectory` marks a worker **suspect**
  after K missed beats and **dead** after a timeout; a graceful
  **deregister** takes the distinct ``left`` path, so shutdown and crash
  are separately observable (and separately tested);
* late joiners are admitted mid-run: the dispatcher
  (:class:`~repro.exec.remote.DistributedExecutor`) watches the
  directory and spawns dispatch connections for every new registration,
  so a hot-added worker immediately pulls ("steals") queued specs from
  the live LPT queue;
* a static ``--remote-workers`` list is a directory too: the executor
  pings the list into a directory of its own, which nobody else joins.

The heartbeat/suspicion state machine is deliberately **sans-I/O**:
:class:`FleetDirectory` never sleeps, never opens a socket, and reads
time only from an injectable clock (the :class:`~repro.net.clock.
VirtualClock` idiom), so every membership transition — join, missed
beat, flapping, rejoin-after-death, steal-vs-requeue races — is
unit-testable deterministically with zero real sleeps
(``tests/test_membership.py``), and chaos runs that drop heartbeats
replay bit-identically.  The I/O shells around it are thin:
:class:`FleetCoordinator` mounts the directory behind three RPC verbs
plus a real-clock sweeper thread, and :class:`CoordinatorLink` is the
worker-side join/heartbeat loop.
"""

from __future__ import annotations

import os
import random
import threading
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from ..core.retry import BackoffPolicy
from ..errors import ConfigurationError, TransportError
from ..net.clock import Clock, RealClock
from ..net.rpc import RpcClient, RpcRemoteError, RpcServer
from ..settings import DEFAULT_COORDINATOR, parse_coordinator_address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.faults import FaultProfile

__all__ = [
    "DEFAULT_COORDINATOR",
    "CoordinatorLink",
    "FleetCoordinator",
    "FleetDirectory",
    "WorkerRecord",
    "WORKER_STATES",
    "ensure_coordinator",
    "fleet_snapshot",
    "parse_coordinator_address",
    "shutdown_coordinators",
    "worker_identity",
]

#: Worker states.  ``live`` and ``suspect`` are dispatchable; ``dead``
#: (missed beats past the timeout) and ``left`` (graceful deregister)
#: are terminal until the worker registers again.
WORKER_STATES = ("live", "suspect", "dead", "left")


@dataclass
class WorkerRecord:
    """One worker as the membership directory sees it.

    ``incarnation`` bumps on every (re-)registration under the same
    worker id, so a worker that died and rejoined is distinguishable
    from its previous life — the dispatcher keys its connection fan-out
    on ``(worker_id, incarnation)`` and never confuses a zombie's
    in-flight work with the rejoined worker's.
    """

    worker_id: str
    address: tuple[str, int]
    width: int = 1
    has_store: bool = False
    pid: int = 0
    state: str = "live"
    last_beat: float = 0.0
    joined_at: float = 0.0
    incarnation: int = 1
    beats: int = 0

    @property
    def dispatchable(self) -> bool:
        """May the dispatcher (keep) sending this worker specs?

        Suspect workers stay dispatchable: missed beats are a *hint*
        (their in-flight specs are not yet re-queued), and a beat takes
        them straight back to live.  Dead and left workers are not.
        """
        return self.state in ("live", "suspect")

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class FleetDirectory:
    """The sans-I/O membership state machine the coordinator runs.

    All transitions are driven by explicit calls — :meth:`register`,
    :meth:`heartbeat`, :meth:`deregister` from the RPC verbs and
    :meth:`sweep` from a clock — against an injectable ``clock`` whose
    only required method is ``now()``.  Under a
    :class:`~repro.net.clock.VirtualClock` the whole state machine is
    deterministic and sleep-free; under the default
    :class:`~repro.net.clock.RealClock` it tracks wall time.

    The state diagram (see DESIGN.md "Fleet membership")::

        register ──► live ──(suspect_misses × interval without a beat)──► suspect
                      ▲  ▲                                                  │
                      │  └──────────────── heartbeat ◄──────────────────────┤
                  register                                   (dead_after without a beat)
                      │                                                     ▼
                    dead ◄──────────────────────────────────────────────────┘
                      │
        deregister ──► left        (heartbeats from dead/left are refused:
                                    the worker must register again, which
                                    bumps its incarnation)

    Args:
        clock: Time source (``now()`` only).  Defaults to wall time.
        heartbeat_interval: Cadence handed to registering workers,
            seconds.
        suspect_misses: Consecutive missed beats before ``live`` turns
            ``suspect``.
        dead_after: Seconds without a beat before a worker is declared
            ``dead`` (must exceed the suspect window).

    Thread-safe; every mutation bumps :attr:`version` and wakes
    :meth:`wait_for_change` waiters, so an elastic dispatcher can react
    to membership changes without polling hot.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        heartbeat_interval: float = 0.5,
        suspect_misses: int = 3,
        dead_after: float = 5.0,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive: {heartbeat_interval}"
            )
        if suspect_misses < 1:
            raise ConfigurationError(
                f"suspect_misses must be >= 1: {suspect_misses}"
            )
        if dead_after <= suspect_misses * heartbeat_interval:
            raise ConfigurationError(
                f"dead_after ({dead_after}) must exceed the suspect window "
                f"({suspect_misses} x {heartbeat_interval})"
            )
        self._clock = clock if clock is not None else RealClock()
        self.heartbeat_interval = float(heartbeat_interval)
        self.suspect_misses = int(suspect_misses)
        self.dead_after = float(dead_after)
        self._records: dict[str, WorkerRecord] = {}
        self._cv = threading.Condition()
        self._version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def suspect_after(self) -> float:
        """Seconds without a beat before ``live`` turns ``suspect``."""
        return self.suspect_misses * self.heartbeat_interval

    @property
    def version(self) -> int:
        """Monotonic change counter (bumped on every transition)."""
        with self._cv:
            return self._version

    def wait_for_change(self, version: int, timeout: float) -> int:
        """Block until the directory changes past ``version`` (bounded).

        Returns the current version either way — equal to ``version``
        on timeout.  Real-time only (used by the elastic dispatcher);
        fake-clock tests drive :meth:`sweep` directly and never wait.
        """
        with self._cv:
            if self._version == version:
                self._cv.wait(timeout=timeout)
            return self._version

    def workers(self) -> tuple[WorkerRecord, ...]:
        """Snapshot of every known worker (copies; sorted by id)."""
        with self._cv:
            return tuple(
                replace(rec) for _, rec in sorted(self._records.items())
            )

    def dispatchable_workers(self) -> tuple[WorkerRecord, ...]:
        """Snapshot of the workers specs may be sent to (live+suspect)."""
        return tuple(rec for rec in self.workers() if rec.dispatchable)

    def get(self, worker_id: str) -> WorkerRecord | None:
        """Snapshot of one worker (None if unknown)."""
        with self._cv:
            rec = self._records.get(worker_id)
            return replace(rec) if rec is not None else None

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def register(
        self,
        worker_id: str,
        address: tuple[str, int],
        width: int = 1,
        has_store: bool = False,
        pid: int = 0,
    ) -> WorkerRecord:
        """Admit (or re-admit) a worker; returns its record snapshot.

        Registration is the only way into the fleet and the only way
        *back* in: a worker the directory declared dead (or that left)
        must register again, which bumps its ``incarnation`` so the
        dispatcher can tell the rejoined worker from its previous life.
        Re-registering while live (a flapping worker that restarted
        faster than the failure detector noticed) bumps the incarnation
        too — the old serve loop is gone either way.
        """
        if width < 1:
            raise ConfigurationError(f"worker width must be >= 1: {width}")
        with self._cv:
            now = self._clock.now()
            rec = self._records.get(worker_id)
            if rec is None:
                rec = WorkerRecord(
                    worker_id=worker_id,
                    address=(address[0], int(address[1])),
                    width=int(width),
                    has_store=bool(has_store),
                    pid=int(pid),
                    state="live",
                    last_beat=now,
                    joined_at=now,
                    incarnation=1,
                )
                self._records[worker_id] = rec
            else:
                rec.address = (address[0], int(address[1]))
                rec.width = int(width)
                rec.has_store = bool(has_store)
                rec.pid = int(pid)
                rec.state = "live"
                rec.last_beat = now
                rec.joined_at = now
                rec.incarnation += 1
                rec.beats = 0
            self._bump()
            return replace(rec)

    def heartbeat(self, worker_id: str) -> str | None:
        """Record one beat; returns the worker's state, or None if the
        beat is refused (unknown, dead, or left — the worker must
        register again).

        A beat from a suspect worker heals it back to live ("flapping"):
        suspicion is a hint, not a verdict, and the beat *is* the
        evidence it was wrong.  A beat from a dead worker is refused
        even though the process is evidently alive — the directory
        already told the dispatcher to re-queue its in-flight specs, so
        resurrecting the old incarnation silently could double-run work
        against a retired connection set; re-registration (a new
        incarnation) is the one sanctioned way back.
        """
        with self._cv:
            rec = self._records.get(worker_id)
            if rec is None or rec.state in ("dead", "left"):
                return None
            rec.last_beat = self._clock.now()
            rec.beats += 1
            if rec.state == "suspect":
                rec.state = "live"
                self._bump()
            return rec.state

    def deregister(self, worker_id: str) -> bool:
        """Graceful exit: mark the worker ``left`` (False if unknown).

        Distinct from death by design: a leaving worker has answered its
        in-flight requests, so the dispatcher retires its connections
        without re-queueing anything that already completed.
        """
        with self._cv:
            rec = self._records.get(worker_id)
            if rec is None:
                return False
            if rec.state != "left":
                rec.state = "left"
                self._bump()
            return True

    def sweep(self) -> list[tuple[str, str, str]]:
        """Apply time-based transitions; returns ``(id, old, new)`` moves.

        Reads the injected clock once and compares each live/suspect
        worker's beat age against the suspect window and the dead
        timeout.  Idempotent: sweeping twice at the same instant is a
        no-op the second time.  The coordinator calls this from a
        real-clock sweeper thread; fake-clock tests call it directly
        after advancing their :class:`~repro.net.clock.VirtualClock`.
        """
        transitions: list[tuple[str, str, str]] = []
        with self._cv:
            now = self._clock.now()
            for rec in self._records.values():
                if rec.state not in ("live", "suspect"):
                    continue
                age = now - rec.last_beat
                if age >= self.dead_after:
                    transitions.append((rec.worker_id, rec.state, "dead"))
                    rec.state = "dead"
                elif age >= self.suspect_after and rec.state == "live":
                    transitions.append((rec.worker_id, "live", "suspect"))
                    rec.state = "suspect"
            if transitions:
                self._bump()
        return transitions

    def forget(self, worker_id: str) -> None:
        """Drop a worker's record entirely (directory hygiene)."""
        with self._cv:
            if self._records.pop(worker_id, None) is not None:
                self._bump()

    def _bump(self) -> None:
        # Caller holds the lock.
        self._version += 1
        self._cv.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = {}
        for rec in self.workers():
            states[rec.state] = states.get(rec.state, 0) + 1
        return f"FleetDirectory({states or 'empty'})"


# ----------------------------------------------------------------------
# Coordinator shell: the directory behind RPC verbs + a sweeper thread
# ----------------------------------------------------------------------
class FleetCoordinator:
    """Mounts a :class:`FleetDirectory` behind ``register`` /
    ``heartbeat`` / ``deregister`` RPC verbs (plus ``fleet`` for
    introspection) and sweeps it on a real-clock thread.

    This is the I/O shell; all membership *logic* lives in the sans-I/O
    directory.  Start one per coordinator process::

        coordinator = FleetCoordinator(port=7070)
        coordinator.start()
        # workers: python -m repro.dataset worker --join 127.0.0.1:7070
        executor = DistributedExecutor(coordinator=coordinator)

    Args:
        host: Interface to bind (loopback by default).
        port: Port to bind (0 = OS-assigned; read :attr:`address` —
            useful for tests, useless for workers that need a known
            address to join).
        directory: An existing directory to mount (a fresh one with the
            keyword defaults otherwise).
        sweep_interval: Sweeper cadence, seconds (default: half the
            directory's heartbeat interval).
        fault_profile: Optional fault injection on the membership
            server's frames (chaos tests drop heartbeat replies).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        directory: FleetDirectory | None = None,
        heartbeat_interval: float = 0.5,
        suspect_misses: int = 3,
        dead_after: float = 5.0,
        sweep_interval: float | None = None,
        fault_profile: "FaultProfile | str | None" = None,
    ) -> None:
        self.directory = directory if directory is not None else FleetDirectory(
            heartbeat_interval=heartbeat_interval,
            suspect_misses=suspect_misses,
            dead_after=dead_after,
        )
        self.sweep_interval = (
            sweep_interval
            if sweep_interval is not None
            else self.directory.heartbeat_interval / 2
        )
        self._server = RpcServer(
            {
                "register": self._handle_register,
                "heartbeat": self._handle_heartbeat,
                "deregister": self._handle_deregister,
                "fleet": self._handle_fleet,
            },
            host=host,
            port=port,
            fault_profile=fault_profile,
        )
        self._sweeper: threading.Thread | None = None
        self._stopping = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    def start(self) -> "FleetCoordinator":
        self._stopping.clear()
        self._server.start()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="fleet-sweep", daemon=True
        )
        self._sweeper.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=2.0)
            self._sweeper = None
        self._server.stop()

    def __enter__(self) -> "FleetCoordinator":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _sweep_loop(self) -> None:
        while not self._stopping.wait(timeout=self.sweep_interval):
            self.directory.sweep()

    # ------------------------------------------------------------------
    # RPC verbs
    # ------------------------------------------------------------------
    def _handle_register(self, payload: dict) -> dict:
        worker_id = str(payload["worker"])
        record = self.directory.register(
            worker_id,
            address=(str(payload["host"]), int(payload["port"])),
            width=int(payload.get("width", 1)),
            has_store=bool(payload.get("store", False)),
            pid=int(payload.get("pid", 0)),
        )
        return {
            "ok": True,
            "incarnation": record.incarnation,
            "heartbeat_interval": self.directory.heartbeat_interval,
            "dead_after": self.directory.dead_after,
        }

    def _handle_heartbeat(self, payload: dict) -> dict:
        state = self.directory.heartbeat(str(payload["worker"]))
        if state is None:
            # Refused — stale incarnation or unknown id.  ok=False (not
            # an error status) so the link re-registers without noise.
            return {"ok": False, "reason": "register"}
        return {"ok": True, "state": state}

    def _handle_deregister(self, payload: dict) -> dict:
        known = self.directory.deregister(str(payload["worker"]))
        return {"ok": True, "known": known}

    def _handle_fleet(self, _payload: dict) -> dict:
        return {
            "workers": [
                {
                    "worker": rec.worker_id,
                    "host": rec.address[0],
                    "port": rec.address[1],
                    "width": rec.width,
                    "store": rec.has_store,
                    "pid": rec.pid,
                    "state": rec.state,
                    "incarnation": rec.incarnation,
                    "beats": rec.beats,
                }
                for rec in self.directory.workers()
            ],
            "version": self.directory.version,
        }


# ----------------------------------------------------------------------
# Process-wide coordinator (the elastic remote backend's)
# ----------------------------------------------------------------------
_coordinators: dict[tuple[str, int], FleetCoordinator] = {}
_coordinators_lock = threading.Lock()


def ensure_coordinator(address: tuple[str, int]) -> FleetCoordinator:
    """The process-wide coordinator bound to ``address`` (started once).

    Every elastic :class:`~repro.exec.remote.DistributedExecutor` in a
    process shares one coordinator per bind address, so a long test or
    experiment run presents workers a single stable membership endpoint.
    The coordinator lives for the process; :func:`shutdown_coordinators`
    exists for test hygiene.
    """
    key = (address[0], int(address[1]))
    with _coordinators_lock:
        coordinator = _coordinators.get(key)
        if coordinator is None:
            try:
                coordinator = FleetCoordinator(host=key[0], port=key[1])
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot bind the elastic coordinator on "
                    f"{key[0]}:{key[1]}: {exc} (is another coordinator "
                    "already running there? pass --coordinator or set "
                    "REPRO_COORDINATOR to a free host:port)"
                ) from exc
            coordinator.start()
            _coordinators[key] = coordinator
        return coordinator


def shutdown_coordinators() -> None:
    """Stop every process-wide coordinator (test hygiene)."""
    with _coordinators_lock:
        coordinators = list(_coordinators.values())
        _coordinators.clear()
    for coordinator in coordinators:
        coordinator.stop()


# ----------------------------------------------------------------------
# Worker side: the join/heartbeat loop
# ----------------------------------------------------------------------
class CoordinatorLink:
    """A worker's membership session: register, heartbeat, deregister.

    Runs one daemon thread that (re-)registers with the coordinator and
    beats on the interval the coordinator hands back.  The loop is
    self-healing in both directions:

    * a refused beat (``ok: false`` — the directory declared us dead, or
      a restarted coordinator lost its state) triggers an immediate
      re-registration (a fresh incarnation);
    * an unreachable coordinator (connection refused/timed out) is
      retried on a jittered backoff (the shared
      :class:`~repro.core.retry.BackoffPolicy`): the first failure waits
      roughly one interval as before, consecutive failures stretch the
      wait toward twice the interval so a whole fleet whose coordinator
      died never hammers the vacant address in lock-step — workers may
      legitimately start before their coordinator, or outlive one
      coordinator process into the next, and simply join whichever binds
      the address next.  The cap is deliberately *tight* (2x, well
      inside the directory's suspect window) so a healthy-but-lossy link
      dropping a few beats in a row never backs off far enough to be
      declared dead by its own politeness.

    Args:
        address: The coordinator's ``host:port``.
        worker_id: Stable identity for this serve loop (the worker CLI
            uses ``host:port/pid``).
        announce: Registration payload fields: ``host``, ``port``,
            ``width``, ``store``, ``pid``.
        interval: Beat cadence before the first successful registration
            (the coordinator's reply overrides it).
        fault_profile: Optional fault injection on the link's frames —
            the chaos knob that makes *heartbeat loss* a replayable
            input.  The link client's retry budget is pinned to zero so
            a dropped beat is genuinely lost (exactly what the failure
            detector must tolerate), not silently resent.
    """

    def __init__(
        self,
        address: tuple[str, int],
        worker_id: str,
        announce: dict,
        interval: float | None = None,
        fault_profile: "FaultProfile | str | None" = None,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.worker_id = worker_id
        self.announce = dict(announce)
        self.interval = float(interval) if interval else 0.5
        self._stop = threading.Event()
        self._registered = False
        self._incarnation = 0
        # One client for the link's life: its dial counter keys the fault
        # injector, so each reconnect draws a distinct (still
        # seed-deterministic) fault stream.  A fresh client would replay
        # dial #1's verdicts, and a dropped register frame would stay
        # dropped on every retry, forever.
        self._client = RpcClient(
            self.address,
            timeout=self._CALL_TIMEOUT,
            fault_profile=fault_profile,
            fault_retries=0,
        )
        self._thread: threading.Thread | None = None
        self._failures = 0  # consecutive link failures (drives backoff)
        # Jitter seeded from the stable worker id, so chaos runs replay.
        self._rng = random.Random(zlib.crc32(worker_id.encode("utf-8")))

    # Link RPCs are short; a beat that cannot complete well inside the
    # suspect window is as good as lost.
    _CALL_TIMEOUT = 2.0

    @property
    def registered(self) -> bool:
        return self._registered

    @property
    def incarnation(self) -> int:
        return self._incarnation

    def start(self) -> "CoordinatorLink":
        self._thread = threading.Thread(
            target=self._loop, name="fleet-link", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, deregister: bool = True) -> None:
        """Stop beating; optionally send a graceful ``deregister``.

        ``deregister=True`` is the graceful-shutdown path (the directory
        records ``left``); crash paths never get here, which is exactly
        how death stays observable as missed beats.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._CALL_TIMEOUT + 1.0)
            self._thread = None
        if deregister and self._registered:
            try:
                self._client.call("deregister", {"worker": self.worker_id})
            except (TransportError, RpcRemoteError, OSError):
                pass  # best-effort: a gone coordinator needs no goodbye
            self._registered = False
        self._client.close()

    def __enter__(self) -> "CoordinatorLink":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                if not self._registered:
                    reply = self._client.call(
                        "register", {"worker": self.worker_id, **self.announce}
                    )
                    self._incarnation = int(reply.get("incarnation", 0))
                    self.interval = float(
                        reply.get("heartbeat_interval", self.interval)
                    )
                    self._registered = True
                    self._failures = 0
                else:
                    reply = self._client.call(
                        "heartbeat", {"worker": self.worker_id}
                    )
                    self._failures = 0
                    if not reply.get("ok", False):
                        # Declared dead (or the coordinator restarted):
                        # re-register on the next pass, without waiting a
                        # full interval — the sooner the fleet heals, the
                        # fewer specs get needlessly re-queued.
                        self._registered = False
                        continue
            except (TransportError, RpcRemoteError, OSError):
                # Coordinator unreachable or the beat was chaos-dropped.
                # Either way: fresh registration attempt after a backoff.
                self._registered = False
                self._failures += 1
            self._stop.wait(self._next_wait())
        self._client.close()

    def _next_wait(self) -> float:
        """The pause before the next link pass, seconds.

        One interval on the healthy path.  After consecutive failures the
        shared jittered backoff stretches it, capped at twice the interval
        — enough to keep a dead coordinator's whole ex-fleet from dialing
        in lock-step, and tight enough (well inside ``suspect_misses`` x
        interval, let alone ``dead_after``) that a lossy-but-alive link
        never politely backs off into a death sentence.
        """
        if self._failures <= 1:
            return self.interval
        policy = BackoffPolicy(
            base_delay=self.interval,
            multiplier=2.0,
            max_delay=self.interval * 2.0,
            jitter=0.25,
        )
        return policy.delay(self._failures - 1, rng=self._rng)


def worker_identity(host: str, port: int, pid: int | None = None) -> str:
    """The worker id the CLI registers under: ``host:port/pid``.

    Address-qualified so two workers on one machine never collide, and
    pid-qualified so a *restarted* worker on the same port is a new
    identity (its old record dies of missed beats instead of being
    silently resurrected).
    """
    return f"{host}:{port}/{pid if pid is not None else os.getpid()}"


def fleet_snapshot(address: tuple[str, int]) -> "Sequence[dict]":
    """One-shot ``fleet`` query against a coordinator (tests, tooling)."""
    with RpcClient(address, timeout=5.0) as client:
        return client.call("fleet").get("workers", [])
