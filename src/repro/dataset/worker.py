"""``python -m repro.dataset worker``: the remote curation worker.

The worker is the serve-loop half of the distributed backend: a
coordinator (``--backend remote``) ships serialized
:class:`~repro.exec.spec.ShardSpec` units over :mod:`repro.net.rpc`; the
worker rehydrates each spec into the exact same city ground truth and
task sample the coordinator would have built, replays it through
:func:`~repro.exec.spec.run_shard_spec`, and answers with a
:class:`~repro.exec.store.DiskShardStore`-format entry blob — the disk
tier's wire format, which the coordinator promotes straight into its own
two-tier cache.

With ``--cache-dir`` the worker keeps a disk store of its own: a spec
whose content-addressed keys are already present is answered from the
store without replaying a query (``cached: true`` and ``wall_seconds``
0.0 in the reply, since nothing executed), so a warm worker's cost is
the transfer, not the computation.  Several workers (and the
coordinator) may share one store root — manifest writes are serialized
by the store's cross-process lock.

Concurrency is connection-shaped: the RPC server runs each connection on
its own thread, and the coordinator opens as many connections as the
worker advertises in its ping reply (``--width``).  Spec execution builds
fresh per-shard state, so concurrent replays never share mutable
objects; the city/task memos behind them are lock-guarded.

RPC methods served:

========= ============================================================
``ping``      ``{"ok", "width", "store", "pid", "specs_run"}``
``run_shard`` ``{"spec": <wire spec>}`` -> ``{"entry", "wall_seconds",
              "cached"}``
``stats``     running counters (specs run, cache hits, store size)
``shutdown``  acknowledges, then stops the serve loop
========= ============================================================
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

from ..exec.base import default_max_workers
from ..exec.membership import (
    CoordinatorLink,
    parse_coordinator_address,
    worker_identity,
)
from ..exec.spec import (
    ShardSpec,
    full_shard_tasks,
    run_shard_spec,
    spec_cache_keys,
    spec_from_wire,
)
from ..exec.store import (
    STORE_VERSION,
    DiskShardStore,
    ShardMeta,
    observation_to_dict,
    shard_digest,
)
from ..net.rpc import RpcServer

__all__ = ["WorkerState", "worker_main"]


class WorkerState:
    """Counters + optional disk store shared by the RPC handlers."""

    def __init__(
        self,
        width: int,
        store: DiskShardStore | None = None,
        exit_after: int | None = None,
        crash_after: int | None = None,
    ) -> None:
        self.width = width
        self.store = store
        self.exit_after = exit_after
        self.crash_after = crash_after
        self.specs_run = 0
        self.cache_hits = 0
        self.requests = 0
        self.lock = threading.Lock()
        self.shutdown = threading.Event()
        # Graceful-exit hook (--exit-after): set once the Nth run_shard
        # has been *answered*; the serve loop then deregisters from any
        # joined coordinator and stops cleanly — the distinct-from-crash
        # path the membership directory records as ``left``.
        self.drain = threading.Event()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def handle_ping(self, _payload: dict) -> dict:
        return {
            "ok": True,
            "width": self.width,
            "store": self.store is not None,
            "pid": os.getpid(),
            "specs_run": self.specs_run,
        }

    def handle_stats(self, _payload: dict) -> dict:
        reply = {
            "specs_run": self.specs_run,
            "cache_hits": self.cache_hits,
            "requests": self.requests,
        }
        if self.store is not None:
            reply["store_entries"] = len(self.store)
            reply["store_bytes"] = self.store.total_bytes()
        return reply

    def handle_shutdown(self, _payload: dict) -> dict:
        self.shutdown.set()
        return {"ok": True}

    def handle_run_shard(self, payload: dict) -> dict:
        with self.lock:
            self.requests += 1
            if (
                self.crash_after is not None
                and self.requests > self.crash_after
            ):
                # Chaos hook for the re-queue regression tests: die the
                # hard way, mid-request, without answering — exactly what
                # an OOM-killed or power-cycled worker looks like.
                os._exit(17)
        spec = spec_from_wire(payload["spec"])
        tasks = full_shard_tasks(spec)[spec.start : spec.stop]
        # An empty config digest means the coordinator could not scope
        # this spec to a configuration; serving or storing it would risk
        # cross-configuration aliasing, so caching is skipped entirely.
        keys = (
            spec_cache_keys(spec, tasks) if spec.config_digest else ()
        )

        if self.store is not None and keys:
            stored = self.store.get(keys)
            if stored is not None and len(stored) == len(keys):
                with self.lock:
                    self.cache_hits += 1
                self._maybe_drain()
                return self._reply(spec, keys, stored, 0.0, True)

        observations, wall_seconds = run_shard_spec(
            replace(spec, tasks=tuple(tasks))
        )
        with self.lock:
            self.specs_run += 1
        if self.store is not None and keys:
            self.store.put(
                keys,
                observations,
                meta=ShardMeta(
                    city=spec.city,
                    isp=spec.isp,
                    seed=spec.world.seed,
                    scale=spec.world.scale,
                    config_digest=spec.config_digest,
                ),
            )
        self._maybe_drain()
        return self._reply(spec, keys, observations, wall_seconds, False)

    # ------------------------------------------------------------------
    def _maybe_drain(self) -> None:
        """Trip the graceful-exit latch once ``--exit-after`` is reached.

        Called with the reply already computed, so the Nth request is
        fully *answered* before the serve loop starts tearing down; a
        straggler request that slips in during the short teardown window
        is simply served too — specs are idempotent, and refusing it
        would surface as a (fatal) deterministic remote error.
        """
        if self.exit_after is not None and not self.drain.is_set():
            with self.lock:
                reached = self.requests >= self.exit_after
            if reached:
                self.drain.set()

    @staticmethod
    def _reply(
        spec: ShardSpec, keys, observations, wall_seconds: float, cached: bool
    ) -> dict:
        return {
            "entry": {
                "version": STORE_VERSION,
                "digest": shard_digest(keys) if keys else "",
                "keys": list(keys),
                "meta": {
                    "city": spec.city,
                    "isp": spec.isp,
                    "seed": spec.world.seed,
                    "scale": spec.world.scale,
                    "config_digest": spec.config_digest,
                },
                "observations": [
                    observation_to_dict(obs) for obs in observations
                ],
            },
            "wall_seconds": wall_seconds,
            "cached": cached,
        }


def worker_main(argv: list[str]) -> int:
    """Entry point for the ``worker`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dataset worker",
        description="Serve curation shard specs to a remote-backend "
                    "coordinator (`--backend remote "
                    "--remote-workers host:port,...`).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (default 0: let the OS pick; "
                             "the bound address is printed on stdout)")
    parser.add_argument("--width", type=int, default=None,
                        help="how many specs this worker runs "
                             "concurrently — advertised to coordinators, "
                             "which open that many connections (default: "
                             "the host's CPU count, floored at two)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="optional on-disk shard store: specs whose "
                             "keys are already present are served "
                             "without replaying a query.  May be shared "
                             "with other workers/the coordinator")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="LRU byte cap for the worker store")
    parser.add_argument("--join", default=None, metavar="HOST:PORT",
                        help="join the elastic fleet: register with the "
                             "membership coordinator at HOST:PORT and "
                             "heartbeat until shutdown (the coordinator "
                             "side is `--backend remote --elastic`)")
    parser.add_argument("--heartbeat-interval", type=float, default=None,
                        help="initial beat cadence for --join, seconds "
                             "(the coordinator's registration reply "
                             "overrides it)")
    parser.add_argument("--join-fault-profile", default=None,
                        help="chaos knob: fault-injection spec for the "
                             "membership link only (register/heartbeat "
                             "frames), so heartbeat loss is testable "
                             "without touching the spec data path")
    # Chaos hooks for the elasticity/re-queue tests: --exit-after N
    # drains *gracefully* (answer N run_shard requests, deregister from
    # any joined coordinator, exit 0); --crash-after N dies the hard way
    # (os._exit mid-request N+1, no goodbye) so death-by-missed-beats
    # stays separately observable from a clean leave.
    parser.add_argument("--exit-after", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--crash-after", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--fault-profile", default=None,
                        help="chaos knob: a fault-injection spec for this "
                             "worker's server-side frames, e.g. "
                             "'seed=7,server.drop=0.05' (overrides "
                             "REPRO_FAULT_PROFILE; 'off' disables). See "
                             "repro.net.faults for the spec grammar")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="refuse RPC calls beyond this many in flight "
                             "with 503 + Retry-After instead of queueing "
                             "them (default: unbounded).  Coordinators "
                             "back off and re-queue refused specs at the "
                             "back of the line")
    args = parser.parse_args(argv)

    width = args.width if args.width is not None else default_max_workers()
    if width < 1:
        parser.error("--width must be >= 1")
    store = (
        DiskShardStore(args.cache_dir, max_bytes=args.cache_max_bytes)
        if args.cache_dir is not None
        else None
    )
    state = WorkerState(
        width,
        store=store,
        exit_after=args.exit_after,
        crash_after=args.crash_after,
    )
    server = RpcServer(
        {
            "ping": state.handle_ping,
            "run_shard": state.handle_run_shard,
            "stats": state.handle_stats,
            "shutdown": state.handle_shutdown,
        },
        host=args.host,
        port=args.port,
        fault_profile=args.fault_profile,
        max_inflight=args.max_inflight,
    )
    server.start()
    host, port = server.address
    link = None
    if args.join is not None:
        link = CoordinatorLink(
            parse_coordinator_address(args.join),
            worker_identity(host, port),
            announce={
                "host": host,
                "port": port,
                "width": width,
                "store": store is not None,
                "pid": os.getpid(),
            },
            interval=args.heartbeat_interval,
            fault_profile=args.join_fault_profile,
        ).start()
    print(
        f"repro worker pid {os.getpid()} listening on {host}:{port} "
        f"(width {width}, store: "
        f"{store.root if store is not None else 'none'}"
        + (f", joined {args.join}" if args.join is not None else "")
        + ")",
        flush=True,
    )
    try:
        while not state.shutdown.is_set() and not state.drain.is_set():
            state.shutdown.wait(timeout=0.5)
            if state.drain.is_set():
                break
    except KeyboardInterrupt:
        pass
    finally:
        if state.drain.is_set():
            # --exit-after: the Nth reply was computed inside the handler
            # but is written by the connection thread after it returns;
            # give that write a beat to flush before severing sockets.
            time.sleep(0.3)
        if link is not None:
            # Graceful goodbye: the directory records ``left``, not a
            # death by missed beats.  Crash paths (--crash-after,
            # SIGKILL) never run this line — that asymmetry is the
            # point.
            link.stop(deregister=True)
        server.stop()
        if store is not None:
            store.flush()
    print(
        f"repro worker pid {os.getpid()} stopped after {state.specs_run} "
        f"specs ({state.cache_hits} cache hits)",
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(worker_main(sys.argv[1:]))
