"""Distributed execution backend: shard specs over coordinator/worker RPC.

The paper's measurement campaign is embarrassingly parallel across
(city, ISP) shards, and a dispatch unit is pure data
(:class:`~repro.exec.spec.ShardSpec`) that any process on any machine
rehydrates into byte-identical work.  This module is the coordinator
half of shipping those specs off-machine:

* :class:`DistributedExecutor` (registry name ``"remote"``) fans specs
  out to ``python -m repro.dataset worker`` processes over
  :mod:`repro.net.rpc`;
* the fleet is always a membership directory
  (:class:`~repro.exec.membership.FleetDirectory`) and one reconcile
  loop dispatches against it.  An **elastic** fleet is the directory of
  a :class:`~repro.exec.membership.FleetCoordinator` that workers join
  with ``python -m repro.dataset worker --join host:port``; a **static**
  ``workers=`` list is pinged once, on first use, into a directory the
  executor owns and nobody else joins;
* each worker advertises a **width** (how many specs it runs at once),
  and the dispatcher opens that many keep-alive connections to it —
  per-worker concurrency is expressed as connections, nothing more;
* the shared work queue is consumed in the order the curation pipeline
  dispatched (longest-processing-time-first under ``schedule="lpt"``,
  priced by :func:`~repro.exec.schedule.shard_price`), so greedy pulling
  by heterogeneous workers *is* LPT list scheduling: wide/fast workers
  simply pull more, and a worker that joins mid-run starts pulling
  ("stealing") from the same queue within one reconcile pass;
* results come back as :class:`~repro.exec.store.DiskShardStore` entries,
  built and read by the store's own codec
  (:func:`~repro.exec.store.encode_entry`,
  :func:`~repro.exec.store.decode_entry`), which the pipeline promotes
  into the coordinator's two-tier cache exactly as if a local backend had
  executed them;
* a worker that dies mid-run has its unanswered in-flight specs
  **re-queued** at the front of the queue for the surviving workers,
  whether its own connections found it dead (a static fleet then
  deregisters it, so later calls skip it) or the coordinator's failure
  detector declared it dead first.  Specs are idempotent pure functions,
  so re-running one elsewhere is always safe, and a spec completed twice
  is recorded first-completion-wins (both completions are
  byte-identical);
* a worker counts toward the fleet only while one of its connections
  stands.  A fleet with none left is empty: a static fleet fails at once
  (nobody can join it), an elastic one after ``join_timeout``.
"""

from __future__ import annotations

import contextlib
import os
import select
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from ..errors import ConfigurationError, TransportError
from ..net.faults import FaultProfile
from ..net.rpc import RpcBusyError, RpcClient, RpcRemoteError
from ..settings import parse_worker_addresses
from .base import Executor
from .membership import FleetCoordinator, FleetDirectory, WorkerRecord
from .spec import spec_to_wire
from .store import decode_entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataset.records import AddressObservation
    from .spec import ShardSpec

__all__ = [
    "DistributedExecutor",
    "local_worker_pool",
    "parse_worker_addresses",
    "start_local_worker",
    "stop_local_worker",
]


class DistributedExecutor(Executor):
    """Executes shard specs on a fleet of remote worker processes.

    Args:
        workers: A static fleet: a ``host:port,...`` string or
            ``(host, port)`` tuples, kept as ``addresses`` (empty for an
            elastic fleet).  An empty list is a configuration error.
        call_timeout: Per-RPC socket timeout, seconds.  One RPC executes
            one spec, so this bounds a single dispatch unit's wall time.
        fault_profile: Optional fault injection for the coordinator side
            of every RPC connection (falls back to
            ``REPRO_FAULT_PROFILE``; ``"off"`` pins it off).
        coordinator: An elastic fleet: the started
            :class:`~repro.exec.membership.FleetCoordinator` whose
            directory workers join and leave mid-run (for example
            :func:`~repro.exec.membership.ensure_coordinator`'s).
            Exclusive with ``workers``.
        join_timeout: How long ``map_specs`` tolerates an *empty*
            elastic fleet — at the start of a run (workers may still be
            joining) or after losing every worker (a replacement may be
            coming) — before failing, seconds.  A static fleet's window
            is 0: nobody can join it.
    """

    name = "remote"

    def __init__(
        self,
        workers: "Sequence[tuple[str, int]] | str | None" = None,
        call_timeout: float = 600.0,
        fault_profile: "FaultProfile | str | None" = None,
        coordinator: "FleetCoordinator | None" = None,
        join_timeout: float = 30.0,
    ) -> None:
        self.fault_profile = fault_profile
        self.call_timeout = call_timeout
        self._coordinator = coordinator
        self._ping_lock = threading.Lock()
        self._pinged = False
        if coordinator is not None:
            if workers is not None:
                raise ConfigurationError(
                    "an elastic fleet is the coordinator's membership "
                    "directory; do not also pass a static worker list"
                )
            self.addresses: tuple[tuple[str, int], ...] = ()
            self.join_timeout = join_timeout
            self._directory = coordinator.directory
            return
        if isinstance(workers, str):
            workers = parse_worker_addresses(workers)
        self.addresses = tuple(
            (host, int(port)) for host, port in workers or ()
        )
        if not self.addresses:
            raise ConfigurationError(
                "the remote backend needs >= 1 worker address: set "
                "REPRO_REMOTE_WORKERS or pass --remote-workers "
                "host:port,... (start workers with `python -m "
                "repro.dataset worker`), or run elastic (--elastic / "
                "REPRO_ELASTIC=1) and have workers --join the coordinator"
            )
        self.join_timeout = 0.0
        self._directory = FleetDirectory()

    @property
    def coordinator(self) -> "FleetCoordinator | None":
        """The membership coordinator of an elastic fleet."""
        return self._coordinator

    @property
    def elastic(self) -> bool:
        """Is the fleet a coordinator's directory (not a static list)?"""
        return self._coordinator is not None

    # ------------------------------------------------------------------
    # The fleet
    # ------------------------------------------------------------------
    def _client(
        self, address: tuple[str, int], timeout: float | None = None
    ) -> RpcClient:
        return RpcClient(
            address,
            timeout=self.call_timeout if timeout is None else timeout,
            fault_profile=self.fault_profile,
        )

    def _fleet(self) -> FleetDirectory:
        """The directory dispatch reads; a static list is pinged into it
        on first use.

        An unreachable static worker is never registered (the fleet may
        legitimately be configured before every machine is up) and never
        re-pinged: a worker that comes back later goes unused until the
        next executor is built.
        """
        with self._ping_lock:
            if not self._pinged:
                for address in self.addresses:
                    try:
                        with self._client(address, timeout=5.0) as client:
                            reply = client.call("ping")
                        self._directory.register(
                            f"{address[0]}:{address[1]}",
                            address,
                            width=max(1, int(reply.get("width", 1))),
                            has_store=bool(reply.get("store", False)),
                        )
                    except (TransportError, RpcRemoteError, ValueError):
                        continue
                self._pinged = True
        return self._directory

    @property
    def width(self) -> int:
        """Total advertised fleet concurrency (drives ``auto`` chunking).

        Reads the directory, waiting up to ``min(5 s, join_timeout)`` for
        a first registration, so a pipeline built the instant after its
        elastic workers were launched still chunks for the real fleet
        width instead of a momentarily-empty directory.
        """
        directory = self._fleet()
        deadline = time.monotonic() + min(5.0, self.join_timeout)
        fleet = directory.dispatchable_workers()
        while not fleet and time.monotonic() < deadline:
            directory.wait_for_change(directory.version, timeout=0.2)
            fleet = directory.dispatchable_workers()
        return max(1, sum(worker.width for worker in fleet))

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------
    def map_specs(
        self, specs: "Sequence[ShardSpec]"
    ) -> "list[tuple[tuple[AddressObservation, ...], float]]":
        """Dispatch against whatever the directory says the fleet is.

        The reconcile loop below runs in the caller's thread and passes
        on every result and at least every 50 ms: every pass it (1)
        spawns dispatch connections for each newly-registered
        ``(worker, incarnation)`` — a hot-added worker starts stealing
        from the shared LPT queue within one pass; (2) retires the
        connection set of any worker that is no longer dispatchable
        (declared dead, gone, or deregistered by its own connections),
        re-queueing its unanswered in-flight specs at the queue front;
        (3) fails once no worker has had a standing connection for
        ``join_timeout`` seconds with work outstanding — at once for a
        static fleet, while a momentarily-empty elastic fleet is normal
        elasticity, not an error.

        Steal-vs-requeue races are benign by construction: a spec both
        re-queued (after its worker was declared dead) and still
        completed by that worker's zombie connection is recorded
        first-completion-wins (both byte-identical), and a later pull of
        the stale queue copy sees the result slot filled and skips it.
        """
        specs = list(specs)
        if not specs:
            return []
        directory = self._fleet()
        state = _DispatchState(specs)
        controls: dict[tuple[str, int], _WorkerControl] = {}
        empty_since: float | None = None
        try:
            while True:
                with state.cv:
                    if state.error is not None:
                        raise state.error
                    if state.unfinished == 0:
                        break
                fleet = {
                    (rec.worker_id, rec.incarnation): rec
                    for rec in directory.dispatchable_workers()
                }
                for key, control in controls.items():
                    if key not in fleet:
                        self._retire(control, state)
                for key, rec in fleet.items():
                    if key not in controls:
                        controls[key] = self._enlist(rec, state, len(specs))
                if any(controls[key].standing for key in fleet):
                    empty_since = None
                elif empty_since is None:
                    empty_since = time.monotonic()
                with state.cv:
                    if state.unfinished == 0 or state.error is not None:
                        continue
                    if (
                        empty_since is not None
                        and time.monotonic() - empty_since >= self.join_timeout
                    ):
                        raise self._empty_fleet_error(state.unfinished)
                    state.cv.wait(timeout=0.05)
        finally:
            # Every exit path — success, coordinator-side error, an empty
            # fleet — tells the dispatchers to stand down and joins them
            # (bounded), so no daemon thread holding an open RpcClient
            # socket leaks past this call.
            with state.cv:
                state.closing = True
                state.cv.notify_all()
            for control in controls.values():
                for thread in control.threads:
                    thread.join(timeout=5.0)
        return state.results  # type: ignore[return-value]

    def _empty_fleet_error(self, unfinished: int) -> TransportError:
        if self._coordinator is not None:
            host, port = self._coordinator.address
            reason = (
                f"no worker joined the elastic fleet at {host}:{port} "
                f"within {self.join_timeout:.0f}s, or none that joined "
                "could be reached"
            )
        else:
            reason = "no remote worker is reachable: " + ", ".join(
                f"{host}:{port}" for host, port in self.addresses
            )
        return TransportError(
            f"{unfinished} shard specs left unfinished: {reason}"
        )

    def _enlist(
        self, record: WorkerRecord, state: "_DispatchState", n_specs: int
    ) -> "_WorkerControl":
        """Spawn the dispatch connections for one worker incarnation."""
        control = _WorkerControl()
        for slot in range(max(1, min(record.width, n_specs))):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(record, state, control),
                name=f"remote-{record.label}#{record.incarnation}-{slot}",
                daemon=True,
            )
            thread.start()
            control.threads.append(thread)
        return control

    @staticmethod
    def _retire(control: "_WorkerControl", state: "_DispatchState") -> None:
        """Stand a departed worker's connections down; re-queue its
        unanswered in-flight specs at the queue front."""
        with state.cv:
            if control.retired:
                return
            control.retired = True
            for index in control.in_flight.values():
                if state.results[index] is None and index not in state.pending:
                    state.pending.appendleft(index)
            state.cv.notify_all()

    def _dispatch_loop(
        self,
        worker: WorkerRecord,
        state: "_DispatchState",
        control: "_WorkerControl",
    ) -> None:
        client = self._client(worker.address)
        slot = object()  # this connection's in-flight registry key
        try:
            while True:
                with state.cv:
                    while not state.pending:
                        if (
                            state.unfinished == 0
                            or state.error is not None
                            or state.closing
                            or control.retired
                        ):
                            return
                        # Work may flow back into the queue if another
                        # worker dies with specs in flight; wait for it.
                        state.cv.wait(timeout=0.1)
                    if (
                        state.error is not None
                        or state.closing
                        or control.retired
                    ):
                        return
                    index = state.pending.popleft()
                    if state.results[index] is not None:
                        # A steal-vs-requeue race already completed this
                        # spec elsewhere; drop the stale queue copy.
                        continue
                    control.in_flight[slot] = index
                spec = state.specs[index]
                try:
                    reply = client.call(
                        "run_shard", {"spec": spec_to_wire(spec)}
                    )
                    outcome = _decode_run_reply(reply)
                except RpcRemoteError as exc:
                    # Deterministic remote failure: retrying on another
                    # worker would fail identically — surface it.
                    with state.cv:
                        state.error = exc
                        state.cv.notify_all()
                    return
                except RpcBusyError as exc:
                    # The worker's admission queue refused the call before
                    # it started: the worker is saturated, not dead.  The
                    # spec goes back at the *back* of the queue (an idle
                    # worker may pull it first; at the front it would
                    # bounce straight back here) and this connection
                    # pauses for the server's Retry-After hint instead of
                    # hammering — backoff, not failover.
                    with state.cv:
                        control.in_flight.pop(slot, None)
                        if (
                            state.results[index] is None
                            and index not in state.pending
                        ):
                            state.pending.append(index)
                        pause = min(max(exc.retry_after or 0.05, 0.01), 1.0)
                        if not state.closing and state.error is None:
                            state.cv.wait(timeout=pause)
                    continue
                except (TransportError, OSError):
                    # The connection (or the worker behind it) failed;
                    # put the in-flight spec back at the *front* — under
                    # LPT ordering it is likely long.  A short ping probe
                    # then separates a flaky connection (chaos-injected
                    # loss: reconnect and keep dispatching) from a dead
                    # worker (dial refused: retire this connection;
                    # sibling connections fail the same way on their next
                    # call).
                    with state.cv:
                        control.in_flight.pop(slot, None)
                        if (
                            state.results[index] is None
                            and index not in state.pending
                        ):
                            state.pending.appendleft(index)
                        state.cv.notify_all()
                    client.close()
                    if self._still_alive(worker.address):
                        continue
                    if self._coordinator is None:
                        # A static fleet's directory is this executor's
                        # own: record the death there, so the reconcile
                        # loop retires the sibling connections and later
                        # calls skip the worker.  An elastic directory
                        # is the coordinator's failure detector's to keep.
                        self._directory.deregister(worker.worker_id)
                    return
                except Exception as exc:  # noqa: BLE001 - must not hang
                    # Anything else (an unserializable config, a decode
                    # bug) is deterministic coordinator-side: letting the
                    # thread die silently would strand the in-flight spec
                    # and hang map_specs, so surface it like a remote
                    # application error.
                    with state.cv:
                        state.error = exc
                        state.cv.notify_all()
                    return
                with state.cv:
                    control.in_flight.pop(slot, None)
                    if state.results[index] is None:
                        # First completion wins; a racing duplicate
                        # (requeue-then-zombie-finish) is byte-identical
                        # and simply discarded.
                        state.results[index] = outcome
                        state.unfinished -= 1
                    state.cv.notify_all()
        finally:
            client.close()
            with state.cv:
                control.in_flight.pop(slot, None)
                state.cv.notify_all()

    def _still_alive(self, address: tuple[str, int]) -> bool:
        """Ping-probe a worker after a failed call (two short attempts).

        Two attempts, so a single injected fault on the probe itself does
        not misdiagnose a healthy worker as dead; a genuinely dead worker
        refuses both dials fast.
        """
        for _ in range(2):
            try:
                with self._client(address, timeout=5.0) as probe:
                    probe.call("ping")
                return True
            except (TransportError, RpcRemoteError, OSError):
                continue
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fleet = ",".join(rec.label for rec in self._directory.workers())
        return f"DistributedExecutor(fleet=[{fleet}])"


class _DispatchState:
    """Shared queue/results/accounting for one ``map_specs`` call."""

    def __init__(self, specs: "list[ShardSpec]") -> None:
        self.specs = specs
        self.pending: deque[int] = deque(range(len(specs)))
        self.results: "list[tuple[tuple[AddressObservation, ...], float] | None]" = (
            [None] * len(specs)
        )
        self.unfinished = len(specs)
        self.error: BaseException | None = None
        self.closing = False  # map_specs is exiting: dispatchers stand down
        self.cv = threading.Condition()


class _WorkerControl:
    """Per-(worker, incarnation) dispatch bookkeeping.

    ``in_flight`` maps each live dispatch connection (keyed by a private
    sentinel) to the spec index it is currently awaiting, so the
    reconcile loop can re-queue exactly the unanswered work when this
    incarnation leaves the fleet.  ``retired`` and ``in_flight`` are
    guarded by the owning ``_DispatchState.cv``.
    """

    def __init__(self) -> None:
        self.retired = False
        self.in_flight: dict[object, int] = {}
        self.threads: list[threading.Thread] = []

    @property
    def standing(self) -> bool:
        """Does at least one of this worker's connections still stand?"""
        return any(thread.is_alive() for thread in self.threads)


def _decode_run_reply(
    reply: dict,
) -> "tuple[tuple[AddressObservation, ...], float]":
    """Decode a worker's ``run_shard`` reply (a store entry and its wall
    time).

    The entry is read by the store's own decoder
    (:func:`~repro.exec.store.decode_entry`), under its type rule and only
    at :data:`~repro.exec.store.STORE_VERSION`, and ``wall_seconds`` is a
    number under the same rule: ``int`` or ``float``, never ``bool`` or a
    string.  A reply that breaks it, or carries an entry of another
    version, raises :class:`TransportError`, like any other malformed
    reply.
    """
    try:
        observations = decode_entry(reply["entry"])
        wall_seconds = reply["wall_seconds"]
        if type(wall_seconds) not in (int, float):
            raise ValueError(f"wrong-typed wall_seconds {wall_seconds!r}")
        wall_seconds = float(wall_seconds)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TransportError(f"malformed run_shard reply: {exc}") from exc
    return observations, wall_seconds


# ----------------------------------------------------------------------
# Loopback fleets (tests, benchmarks, quick starts)
# ----------------------------------------------------------------------
def start_local_worker(
    width: int = 2,
    cache_dir: "str | Path | None" = None,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Spawn one loopback worker process (port 0, banner on stdout).

    The returned process has a live ``stdout`` pipe; pass it to
    ``_await_worker_banner`` to learn its bound address, and retire it
    with ``stop_local_worker``.  Elastic tests use this directly to
    hot-add a worker mid-``map_specs``.
    """
    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    existing = os.environ.get("PYTHONPATH", "")
    env = dict(
        os.environ,
        PYTHONPATH=(
            f"{src_root}{os.pathsep}{existing}" if existing else str(src_root)
        ),
    )
    command = [
        sys.executable, "-m", "repro.dataset", "worker",
        "--host", "127.0.0.1", "--port", "0",
        "--width", str(width),
    ]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    command += list(extra_args)
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def stop_local_worker(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a loopback worker and reap it (kill if it lingers)."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
        proc.kill()
        proc.wait(timeout=timeout)
    if proc.stdout is not None:
        proc.stdout.close()


@contextlib.contextmanager
def local_worker_pool(
    count: int = 2,
    width: int = 2,
    cache_dir: "str | Path | None" = None,
    extra_args: Sequence[str] = (),
    startup_timeout: float = 60.0,
) -> Iterator[tuple[tuple[str, int], ...]]:
    """Spawn ``count`` loopback worker processes; yields their addresses.

    The zero-config way to try (and test) the remote backend on one
    machine::

        with local_worker_pool(count=2, width=4) as addresses:
            executor = DistributedExecutor(workers=addresses)
            ...

    Workers bind port 0 and print their bound address on stdout, which is
    parsed here; ``cache_dir`` hands every worker the *same* store root
    (exercising the cross-process manifest lock).  Workers are terminated
    on exit.
    """
    procs: list[subprocess.Popen] = []
    addresses: list[tuple[str, int]] = []
    try:
        for _ in range(count):
            procs.append(
                start_local_worker(
                    width=width, cache_dir=cache_dir, extra_args=extra_args
                )
            )
        for proc in procs:
            addresses.append(_await_worker_banner(proc, startup_timeout))
        yield tuple(addresses)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                proc.kill()
                proc.wait(timeout=10.0)
            if proc.stdout is not None:
                proc.stdout.close()


def _await_worker_banner(
    proc: subprocess.Popen, timeout: float
) -> tuple[str, int]:
    """Parse ``... listening on host:port`` from a worker's stdout.

    Bounded by ``timeout`` even against a worker that hangs without
    printing anything: the pipe's descriptor is polled with ``select``
    and read with ``os.read``, and lines are split here.  A buffered
    ``readline`` would be wrong: a line written just before the banner
    can pull the banner into the reader's buffer, where ``select`` no
    longer sees it.
    """
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    marker = b" listening on "
    pending = b""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise TransportError(
                f"worker exited with {proc.returncode} before listening"
            )
        ready, _, _ = select.select([fd], [], [], 0.2)
        if not ready:
            continue
        *lines, pending = (pending + os.read(fd, 65536)).split(b"\n")
        for line in lines:
            if marker in line:
                address = line.rsplit(marker, 1)[1].split()[0].decode()
                host, _, port = address.rpartition(":")
                return (host, int(port))
    raise TransportError("worker did not announce a listening address in time")
