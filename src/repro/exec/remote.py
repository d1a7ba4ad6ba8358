"""Distributed execution backend: shard specs over coordinator/worker RPC.

The paper's measurement campaign is embarrassingly parallel across
(city, ISP) shards, and since the spec refactor a dispatch unit is pure
data (:class:`~repro.exec.spec.ShardSpec`) that any process on any
machine rehydrates into byte-identical work.  This module is the
coordinator half of shipping those specs off-machine:

* :class:`DistributedExecutor` (registry name ``"remote"``) fans specs
  out to ``python -m repro.dataset worker`` processes over
  :mod:`repro.net.rpc`;
* each worker advertises a **width** (how many specs it runs at once) in
  its ping reply, and the dispatcher opens that many keep-alive
  connections to it — per-worker concurrency is expressed as
  connections, nothing more;
* the shared work queue is consumed in the order the curation pipeline
  dispatched (longest-processing-time-first under ``schedule="lpt"``,
  priced by the PR-4 cost model), so greedy pulling by heterogeneous
  workers *is* LPT list scheduling: wide/fast workers simply pull more;
* results come back as :class:`~repro.exec.store.DiskShardStore`-format
  entry blobs — the disk tier's wire format — which the pipeline promotes
  into the coordinator's two-tier cache exactly as if a local backend had
  executed them;
* a worker that dies mid-run (connection lost) has its in-flight spec
  **re-queued** at the front of the queue for the surviving workers;
  specs are idempotent pure functions, so re-running one elsewhere is
  always safe.  Only when *every* worker is gone with work still pending
  does the run fail;
* in **elastic mode** (``elastic=True`` with a coordinator) the fleet is
  not a static list at all: the coordinator runs a membership directory
  (:mod:`repro.exec.membership`) that workers join with ``python -m
  repro.dataset worker --join host:port``, and ``map_specs`` watches it
  live — late joiners get dispatch connections mid-run and immediately
  pull ("steal") from the shared LPT queue, workers the failure detector
  declares dead have their in-flight specs re-queued even when their
  sockets have not broken yet, and a steal-vs-requeue race is harmless
  by construction (results are recorded first-completion-wins, and every
  completion of one spec is byte-identical).

Generic :meth:`Executor.map` work — closures over live objects — cannot
cross a machine boundary and is deliberately **not** shipped: it degrades
to a local in-order loop, so a run-wide remote backend still runs every
non-spec consumer correctly (and the curation pipeline, the only spec
producer, is the only thing that actually distributes).
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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

from ..errors import ConfigurationError, TransportError
from ..net.faults import FaultProfile
from ..net.rpc import RpcBusyError, RpcClient, RpcRemoteError
from ..settings import parse_worker_addresses
from .base import Executor
from .membership import FleetCoordinator, WorkerRecord
from .spec import spec_to_wire
from .store import observation_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataset.records import AddressObservation
    from .spec import ShardSpec

__all__ = [
    "DistributedExecutor",
    "WorkerInfo",
    "local_worker_pool",
    "parse_worker_addresses",
    "start_local_worker",
    "stop_local_worker",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


@dataclass
class WorkerInfo:
    """One worker as the dispatcher sees it."""

    address: tuple[str, int]
    width: int = 1
    alive: bool = True
    has_store: bool = False

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class DistributedExecutor(Executor):
    """Executes shard specs on a fleet of remote worker processes.

    Args:
        workers: Worker addresses — a ``host:port,...`` string or
            ``(host, port)`` tuples.  An empty fleet is a configuration
            error (static mode).
        call_timeout: Per-RPC socket timeout, seconds.  One RPC executes
            one spec, so this bounds a single dispatch unit's wall time.
        max_workers: Accepted for registry symmetry; ignored (per-worker
            concurrency is whatever each worker advertises).
        fault_profile: Optional fault injection for the coordinator side
            of every RPC connection (falls back to
            ``REPRO_FAULT_PROFILE``; ``"off"`` pins it off).
        elastic: Consume a live membership directory
            (:mod:`repro.exec.membership`) instead of a static list:
            workers join/leave mid-run and ``map_specs`` follows.
        coordinator: The started :class:`~repro.exec.membership.
            FleetCoordinator` an elastic executor consumes (for example
            :func:`~repro.exec.membership.ensure_coordinator`'s).
        join_timeout: Elastic mode only: how long ``map_specs`` tolerates
            an *empty* fleet — at the start of a run (workers may still
            be joining) or after losing every worker (a replacement may
            be coming) — before failing, seconds.
    """

    name = "remote"

    def __init__(
        self,
        workers: "Sequence[tuple[str, int]] | str | None" = None,
        call_timeout: float = 600.0,
        max_workers: int | None = None,
        fault_profile: "FaultProfile | str | None" = None,
        elastic: bool = False,
        coordinator: "FleetCoordinator | None" = None,
        join_timeout: float = 30.0,
    ) -> None:
        del max_workers  # width comes from the workers themselves
        self.fault_profile = fault_profile
        self.join_timeout = join_timeout
        self.call_timeout = call_timeout
        self.elastic = elastic
        self._coordinator = coordinator
        self._probed = False
        self._probe_lock = threading.Lock()
        if elastic:
            if workers is not None:
                raise ConfigurationError(
                    "elastic mode consumes the membership directory; do "
                    "not also pass a static worker list"
                )
            if coordinator is None:
                raise ConfigurationError(
                    "elastic mode needs a coordinator (see "
                    "repro.exec.membership.ensure_coordinator)"
                )
            self._workers: list[WorkerInfo] = []
            return
        if isinstance(workers, str):
            workers = parse_worker_addresses(workers)
        addresses = [(host, int(port)) for host, port in workers or ()]
        if not addresses:
            raise ConfigurationError(
                "the remote backend needs >= 1 worker address: set "
                "REPRO_REMOTE_WORKERS or pass --remote-workers "
                "host:port,... (start workers with `python -m "
                "repro.dataset worker`), or run elastic (--elastic / "
                "REPRO_ELASTIC=1) and have workers --join the coordinator"
            )
        self._workers = [WorkerInfo(address) for address in addresses]

    @property
    def coordinator(self) -> "FleetCoordinator | None":
        """The membership coordinator (elastic mode only)."""
        return self._coordinator

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _client(
        self, worker: WorkerInfo, timeout: float | None = None
    ) -> RpcClient:
        return RpcClient(
            worker.address,
            timeout=self.call_timeout if timeout is None else timeout,
            fault_profile=self.fault_profile,
        )

    def _probe(self) -> list[WorkerInfo]:
        """Ping every worker once; returns the live ones.

        Unreachable workers are marked dead and skipped (the fleet may
        legitimately be configured before every machine is up); they are
        not re-probed — a worker that comes back mid-run simply goes
        unused until the next executor is built.
        """
        with self._probe_lock:
            if not self._probed:
                for worker in self._workers:
                    try:
                        with self._client(worker, timeout=5.0) as client:
                            reply = client.call("ping")
                        worker.width = max(1, int(reply.get("width", 1)))
                        worker.has_store = bool(reply.get("store", False))
                        worker.alive = True
                    except (TransportError, RpcRemoteError, ValueError):
                        worker.alive = False
                self._probed = True
            return [worker for worker in self._workers if worker.alive]

    @property
    def workers(self) -> tuple[WorkerInfo, ...]:
        """The configured fleet (probing state included)."""
        return tuple(self._workers)

    @property
    def width(self) -> int:
        """Total advertised fleet concurrency (drives ``auto`` chunking).

        In elastic mode this reads the membership directory — waiting
        briefly for a first registration, so a pipeline built the
        instant after its workers were launched still chunks for the
        real fleet width instead of a momentarily-empty directory.
        """
        if self.elastic:
            assert self._coordinator is not None
            directory = self._coordinator.directory
            deadline = time.monotonic() + min(5.0, self.join_timeout)
            fleet = directory.dispatchable_workers()
            while not fleet and time.monotonic() < deadline:
                directory.wait_for_change(directory.version, timeout=0.2)
                fleet = directory.dispatchable_workers()
            return max(1, sum(worker.width for worker in fleet))
        live = self._probe()
        return max(1, sum(worker.width for worker in live))

    # ------------------------------------------------------------------
    # Executor protocol
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Sequence[_ItemT],
    ) -> list[_ResultT]:
        """Generic work runs locally, in order.

        Closures cannot cross a machine boundary; only shard specs
        (:meth:`map_specs`) distribute.  Degrading to the serial
        reference keeps non-spec consumers (fleet batching, contract
        tests) correct under a process-wide remote default.
        """
        return [fn(item) for item in items]

    def map_specs(
        self, specs: "Sequence[ShardSpec]"
    ) -> "list[tuple[tuple[AddressObservation, ...], float]]":
        specs = list(specs)
        if not specs:
            return []
        if self.elastic:
            return self._map_specs_elastic(specs)
        live = self._probe()
        if not live:
            raise TransportError(
                "no remote worker is reachable: "
                + ", ".join(worker.label for worker in self._workers)
            )

        state = _DispatchState(specs)
        plan = [
            (worker, slot)
            for worker in live
            for slot in range(min(worker.width, len(specs)))
        ]
        # Counted before any thread starts, so a fast-exiting dispatcher
        # cannot race the bookkeeping below zero.
        state.live_threads = len(plan)
        threads: list[threading.Thread] = []
        for worker, slot in plan:
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(worker, state),
                name=f"remote-{worker.label}-{slot}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        try:
            with state.cv:
                while state.unfinished > 0 and state.error is None:
                    if state.live_threads == 0:
                        raise TransportError(
                            f"{state.unfinished} shard specs left "
                            "undispatched: every remote worker failed "
                            "mid-run"
                        )
                    state.cv.wait(timeout=0.5)
                if state.error is not None:
                    raise state.error
        finally:
            # Every exit path — success, coordinator-side error, fleet
            # death — tells the dispatchers to stand down and joins them
            # (bounded), so no daemon thread holding an open RpcClient
            # socket leaks past this call.
            with state.cv:
                state.closing = True
                state.cv.notify_all()
            for thread in threads:
                thread.join(timeout=5.0)
        return state.results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Elastic dispatch: consume the membership directory live
    # ------------------------------------------------------------------
    def _map_specs_elastic(
        self, specs: "list[ShardSpec]"
    ) -> "list[tuple[tuple[AddressObservation, ...], float]]":
        """Dispatch against whatever the directory says the fleet is.

        The reconcile loop below runs in the caller's thread and passes
        on every result and at least every 50 ms: every pass it (1)
        spawns dispatch connections for each newly-registered
        ``(worker, incarnation)`` — a hot-added worker starts stealing
        from the shared LPT queue within one pass; (2)
        retires the connection set of any worker the failure detector
        declared dead (or that gracefully left), re-queueing its
        unanswered in-flight specs at the queue front; (3) fails only
        after the fleet has been *empty* for ``join_timeout`` seconds
        with work outstanding — a momentarily-empty fleet is normal
        elasticity, not an error.

        Steal-vs-requeue races are benign by construction: a spec both
        re-queued (after its worker was declared dead) and still
        completed by that worker's zombie connection is recorded
        first-completion-wins (both byte-identical), and a later pull of
        the stale queue copy sees the result slot filled and skips it.
        """
        assert self._coordinator is not None
        directory = self._coordinator.directory
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
                if fleet:
                    empty_since = None
                elif empty_since is None:
                    empty_since = time.monotonic()
                elif time.monotonic() - empty_since > self.join_timeout:
                    with state.cv:
                        unfinished = state.unfinished
                    raise TransportError(
                        f"{unfinished} shard specs left unfinished: no "
                        f"worker joined the elastic fleet at "
                        f"{self._coordinator.address[0]}:"
                        f"{self._coordinator.address[1]} within "
                        f"{self.join_timeout:.0f}s"
                    )
                with state.cv:
                    if state.unfinished > 0 and state.error is None:
                        state.cv.wait(timeout=0.05)
        finally:
            with state.cv:
                state.closing = True
                state.cv.notify_all()
            for control in controls.values():
                for thread in control.threads:
                    thread.join(timeout=5.0)
        return state.results  # type: ignore[return-value]

    def _enlist(
        self, record: WorkerRecord, state: "_DispatchState", n_specs: int
    ) -> "_WorkerControl":
        """Spawn the dispatch connections for one worker incarnation."""
        info = WorkerInfo(
            address=record.address,
            width=record.width,
            has_store=record.has_store,
        )
        control = _WorkerControl(record.worker_id, record.incarnation)
        slots = max(1, min(record.width, n_specs))
        # Counted before any thread starts, so a fast-exiting dispatcher
        # cannot race the bookkeeping below zero.
        with state.cv:
            state.live_threads += slots
        for slot in range(slots):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(info, state, control),
                name=(
                    f"remote-{info.label}"
                    f"#{record.incarnation}-{slot}"
                ),
                daemon=True,
            )
            thread.start()
            control.threads.append(thread)
        return control

    @staticmethod
    def _retire(control: "_WorkerControl", state: "_DispatchState") -> None:
        """Stand a dead/left worker's connections down; re-queue its
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
        worker: WorkerInfo,
        state: "_DispatchState",
        control: "_WorkerControl | None" = None,
    ) -> None:
        client = self._client(worker)
        slot = object()  # this connection's in-flight registry key
        try:
            while True:
                with state.cv:
                    while not state.pending:
                        if (
                            state.unfinished == 0
                            or state.error is not None
                            or state.closing
                            or (control is not None and control.retired)
                        ):
                            return
                        # Work may flow back into the queue if another
                        # worker dies with specs in flight; wait for it.
                        state.cv.wait(timeout=0.1)
                    if (
                        state.error is not None
                        or state.closing
                        or (control is not None and control.retired)
                    ):
                        return
                    index = state.pending.popleft()
                    if state.results[index] is not None:
                        # A steal-vs-requeue race already completed this
                        # spec elsewhere; drop the stale queue copy.
                        continue
                    if control is not None:
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
                        if control is not None:
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
                        if control is not None:
                            control.in_flight.pop(slot, None)
                        if (
                            state.results[index] is None
                            and index not in state.pending
                        ):
                            state.pending.appendleft(index)
                        state.cv.notify_all()
                    client.close()
                    if self._still_alive(worker):
                        continue
                    worker.alive = False
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
                    if control is not None:
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
                if control is not None:
                    control.in_flight.pop(slot, None)
                state.live_threads -= 1
                state.cv.notify_all()

    def _still_alive(self, worker: WorkerInfo) -> bool:
        """Ping-probe a worker after a failed call (two short attempts).

        Two attempts, so a single injected fault on the probe itself does
        not misdiagnose a healthy worker as dead; a genuinely dead worker
        refuses both dials fast.
        """
        for _ in range(2):
            try:
                with self._client(worker, timeout=5.0) as probe:
                    probe.call("ping")
                return True
            except (TransportError, RpcRemoteError, OSError):
                continue
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fleet = ",".join(worker.label for worker in self._workers)
        return f"DistributedExecutor(workers=[{fleet}])"


class _DispatchState:
    """Shared queue/results/accounting for one ``map_specs`` call."""

    def __init__(self, specs: "list[ShardSpec]") -> None:
        self.specs = specs
        self.pending: deque[int] = deque(range(len(specs)))
        self.results: "list[tuple[tuple[AddressObservation, ...], float] | None]" = (
            [None] * len(specs)
        )
        self.unfinished = len(specs)
        self.live_threads = 0
        self.error: BaseException | None = None
        self.closing = False  # map_specs is exiting: dispatchers stand down
        self.cv = threading.Condition()


class _WorkerControl:
    """Per-(worker, incarnation) dispatch bookkeeping for elastic mode.

    ``in_flight`` maps each live dispatch connection (keyed by a private
    sentinel) to the spec index it is currently awaiting, so the
    reconcile loop can re-queue exactly the unanswered work when the
    failure detector declares this incarnation dead.  All fields are
    guarded by the owning ``_DispatchState.cv``.
    """

    def __init__(self, worker_id: str, incarnation: int) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.retired = False
        self.in_flight: dict[object, int] = {}
        self.threads: list[threading.Thread] = []


def _decode_run_reply(
    reply: dict,
) -> "tuple[tuple[AddressObservation, ...], float]":
    """Decode a worker's ``run_shard`` reply (a store-format entry blob)."""
    try:
        entry = reply["entry"]
        rows = entry["observations"]
        observations = tuple(observation_from_dict(row) for row in rows)
        wall_seconds = float(reply.get("wall_seconds", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
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
