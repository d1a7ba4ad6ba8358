"""``serve_mixed``: a prewarmed serve process over one loopback worker,
driven by an open-loop load generator at a fixed rate."""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import harness
import inputs
import spans
import speed
from percentiles import percentile, tail, throughput
from report import Outcome, finite


#: Seconds the server may take to build its world, prewarm and listen.
SERVER_START_S = 40.0


def _server_args(worker: tuple[str, int], cache_dir: Path) -> list[str]:
    return [
        "--host", "127.0.0.1", "--port", "0",
        "--seed", str(inputs.WORLD_SEED), "--scale", str(inputs.SCALE),
        "--cities", *inputs.CITIES,
        "--fraction", str(inputs.FRACTION),
        "--min-samples", str(inputs.MIN_SAMPLES),
        "--workers", str(inputs.FLEET),
        "--backend", "remote", "--remote-workers", f"{worker[0]}:{worker[1]}",
        "--cache-dir", str(cache_dir), "--prewarm", "--fault-profile", "off",
        # Admission knobs are explicit: the CLI defaults price every miss
        # at the last large-shard cost and refuse misses after a burst.
        # These keep the tier in its clear state at this load, so every
        # forced request re-curates and every refusal is a failure.
        "--serve-width", "2", "--queue-depth", "8", "--theta", "0.9",
        "--mark-delay", "5", "--shed-delay", "10", "--est-cost", "0.1",
        "--rate", "10000", "--isp-rate", "100000",
    ]


def _path(city: str, isp: str, force: bool) -> str:
    return f"/query?city={city}&isp={isp}&class=interactive" + ("&force=1" if force else "")


def payload_digest(body: bytes) -> tuple[str, int]:
    """``shard_payload_digest`` recomputed from a response body's rows."""
    payload = json.loads(body)
    rows = payload["observations"]
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), len(rows)


class _Verifier:
    """Checks served payloads against the pinned oracle digests.

    A body is verified in full (rows re-hashed) the first time its
    ``(shard, source)`` is seen; identical bytes later are recognised by
    their sha256.
    """

    def __init__(self) -> None:
        self._known: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()

    def check(self, city: str, isp: str, source: str, body: bytes) -> int | None:
        """Observation count of a correct payload, None for a wrong one."""
        expected, count = inputs.SHARDS[(city, isp)]
        body_hash = hashlib.sha256(body).hexdigest()
        with self._lock:
            if self._known.get((city, isp, source)) == body_hash:
                return count
        try:
            digest, rows = payload_digest(body)
        except (ValueError, KeyError, TypeError):
            return None
        if digest != expected or rows != count:
            return None
        with self._lock:
            self._known[(city, isp, source)] = body_hash
        return count


@dataclass
class _Request:
    due: float
    city: str
    isp: str
    force: bool
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    observations: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.observations is not None

    @property
    def latency(self) -> float:
        """Seconds from due to response; a failed request never answered."""
        return self.done - self.due if self.ok else math.inf


class _Connection:
    """One keep-alive HTTP connection, reopened after a transport error."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self._conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int, str, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            self._conn.request("GET", path, headers={"Connection": "keep-alive"})
            response = self._conn.getresponse()
            return response.status, response.getheader("X-Repro-Source") or "", response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(connection: _Connection, verifier: _Verifier, request: _Request) -> None:
    request.sent = time.monotonic()
    try:
        status, source, body = connection.get(_path(request.city, request.isp, request.force))
    except (OSError, http.client.HTTPException):
        status, body = -1, b""
    request.done = time.monotonic()
    request.status = status
    if status == 200:
        request.observations = verifier.check(request.city, request.isp, source, body)


def run_schedule(address, schedule, verifier: _Verifier, threads: int) -> tuple[list[_Request], tuple[float, float]]:
    """Send ``schedule`` open-loop over ``threads`` keep-alive connections.

    Each thread takes the next request, sleeps until it is due and sends
    it; a request that comes due while every connection is busy goes out
    late, and its latency still counts from when it was due.
    """
    start = time.monotonic() + 0.05
    requests = [_Request(start + due, city, isp, force) for due, city, isp, force in schedule]
    cursor = iter(requests)
    lock = threading.Lock()

    def drive() -> None:
        connection = _Connection(address)
        try:
            while True:
                with lock:
                    request = next(cursor, None)
                if request is None:
                    return
                delay = request.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                _send(connection, verifier, request)
        finally:
            connection.close()

    workers = [
        threading.Thread(target=drive, name=f"loadgen-{i}", daemon=True)
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return requests, (start, max([r.done for r in requests] + [start]))


def _warm_up(address, verifier: _Verifier, outcome: Outcome) -> None:
    """Untimed: every shard once as a hit, every forced shard once forced."""
    connection = _Connection(address)
    try:
        kinds = [(city, isp, False) for city, isp in inputs.SHARDS]
        kinds += [(city, isp, True) for city, isp in inputs.SERVE_FORCED_SHARDS]
        for city, isp, force in kinds:
            request = _Request(time.monotonic(), city, isp, force)
            _send(connection, verifier, request)
            outcome.check(request.ok, f"warm-up {city}/{isp} force={force}: {request.status}")
    finally:
        connection.close()


def serve_pass(seed: int, seconds: int, tmp: Path, outcome: Outcome, trace_dir: Path | None) -> dict:
    """Start worker and server, warm up, run the schedule, stop both."""
    schedule = inputs.build_schedule(seed, inputs.SERVE_RATE, seconds)
    verifier = _Verifier()
    worker = server = None

    def launch(role: str, *args: str):
        traced = ["--trace-out", str(trace_dir / f"{role}.json")] if trace_dir else []
        return harness.start_child(harness.python_child("launch.py", role, *traced, "--", *args))

    with speed.SamplerProcess() as sampler:
        try:
            for attempt in range(2):
                started = time.monotonic()
                worker = launch("worker", "--host", "127.0.0.1", "--port", "0", "--width", "1")
                try:
                    worker_address = harness.await_banner(worker, 30)
                    cache_dir = Path(tempfile.mkdtemp(prefix="serve-cache-", dir=tmp))
                    server = launch("serve", *_server_args(worker_address, cache_dir))
                    # Start-up and prewarm take 5-10 s.  A prewarm RPC to
                    # the worker has been seen to stall for minutes once in
                    # a few hundred starts: start both afresh, once.
                    address = harness.await_banner(server, SERVER_START_S)
                    break
                except RuntimeError:
                    for proc in (server, worker):
                        if proc is not None:
                            harness.stop_child(proc)
                    worker = server = None
                    if attempt:
                        raise
                    outcome.notes["restarts"] = attempt + 1
            _warm_up(address, verifier, outcome)
            ready = time.monotonic()
            requests, window = run_schedule(address, schedule, verifier, inputs.SERVE_CONNECTIONS)
            peak_rss = harness.peak_rss_mb_of(server.pid) + harness.peak_rss_mb_of(worker.pid)
        finally:
            for proc in (server, worker):
                if proc is not None:
                    harness.stop_child(proc)
    for request in requests:
        outcome.check(request.ok, f"{request.city}/{request.isp} force={request.force}: {request.status}")
    setup_ref = speed.window_reference(sampler.samples, [(started, ready)])
    run_ref = speed.window_reference(sampler.samples, [window])
    return {
        "setup_s": speed.scale(ready - started, setup_ref),
        "raw_setup_s": ready - started,
        "setup_window": (started, ready),
        "run_window": window,
        "reference_s": [setup_ref, run_ref],
        "speed_samples": sampler.samples,
        "peak_rss_mb": peak_rss,
        "requests": requests,
    }


def _latencies(requests, force: bool | None = None) -> list[float]:
    return [r.latency for r in requests if force is None or r.force == force]


def _scaled(requests, samples) -> list[float]:
    """Each request's latency scaled by the host speed sampled within a
    second of it (:mod:`speed`)."""
    return [
        r.latency * speed.REFERENCE_S
        / speed.window_reference(samples, [(r.due, max(r.due, r.done))], margin=1.0)
        for r in requests
    ]


def _throughput(requests, latencies) -> float:
    """Observations per second over the shards requested: one request of
    each shard, at that shard's fast-quartile latency."""
    by_shard: dict[tuple[str, str], list[float]] = {}
    for request, latency in zip(requests, latencies):
        by_shard.setdefault((request.city, request.isp), []).append(latency)
    return throughput(
        [(inputs.SHARDS[shard][1], values) for shard, values in by_shard.items()]
    )


def _loadgen_metrics(requests) -> dict[str, float]:
    lateness = [(r.sent - r.due) * 1000.0 for r in requests]
    try:
        lateness_p99 = percentile(lateness, 0.99)
    except ValueError:
        lateness_p99 = max(lateness)
    return {
        "loadgen.sent": float(len(requests)),
        "loadgen.failed": float(sum(not r.ok for r in requests)),
        "loadgen.lateness_p99_ms": lateness_p99,
    }


def serve_mixed(seed: int, seconds: int, tmp: Path, trace: bool) -> Outcome:
    """Traced: one untraced pass, then one pass with both processes
    launched traced, for the overhead."""
    outcome = Outcome()
    if trace:
        plain = serve_pass(seed, seconds, tmp, outcome, None)
        trace_dir = tmp / "spans"
        trace_dir.mkdir()
        traced = serve_pass(seed, seconds, tmp, outcome, trace_dir)
        span_list = []
        for role in ("serve", "worker"):
            span_list += spans.load_spans(trace_dir / f"{role}.json")
        outcome.metrics = spans.summarize(span_list, [traced["run_window"]], [traced["setup_window"]])
        requests = traced["requests"]
        outcome.metrics.update(_loadgen_metrics(requests))
        outcome.metrics.update(spans.wait_percentiles(spans.request_waits(
            [(r.sent, r.done, r.done - r.due, r.city, r.isp, r.force) for r in requests if r.ok],
            span_list,
        )))
        outcome.metrics["trace.overhead_frac"] = (
            _class_cost(requests) / _class_cost(plain["requests"]) - 1.0
        )
        return outcome

    run = serve_pass(seed, seconds, tmp, outcome, None)
    requests = run["requests"]
    # Latencies are scaled to the host's uncontended speed; the SLO is
    # judged on the latencies as measured.
    latencies = _scaled(requests, run["speed_samples"])
    hits = [(r, lat) for r, lat in zip(requests, latencies) if not r.force]
    forced = [(r, lat) for r, lat in zip(requests, latencies) if r.force]
    # The tail is the forced re-curations' highest percentile with ten
    # samples beyond it: over all requests the p99 is that same figure
    # unless one server stall (a full collection, a slow fsync) delays ten
    # requests at once, which moved it by 50% between runs.
    value, label = tail([lat for _, lat in forced], levels=(0.9, 0.75))
    within_slo = sum(r.latency * 1000.0 <= inputs.SLO_MS for r in requests)
    outcome.metrics = {
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "obs_per_s": _throughput(*zip(*hits)),
        "replay_obs_per_s": _throughput(*zip(*forced)),
        "p50_ms": finite(median(latencies) * 1000.0),
        "tail_ms": finite(value * 1000.0),
        "ok_frac": within_slo / len(requests),
    }
    all_p99, _ = tail(latencies)
    outcome.notes.update({
        "tail": f"{label} of forced requests", "p99_all_ms": finite(all_p99 * 1000.0),
        "rate_per_s": inputs.SERVE_RATE,
        "raw_setup_s": run["raw_setup_s"], "reference_s": run["reference_s"],
        **_loadgen_metrics(requests),
    })
    outcome.samples = {
        "requests": [
            [round(r.due - run["run_window"][0], 6), r.city, r.isp, r.force,
             r.status, finite(r.latency)]
            for r in requests
        ],
        "speed": [[round(t - run["run_window"][0], 3), ref] for t, ref in run["speed_samples"]],
    }
    return outcome


def _class_cost(requests) -> float:
    """Median hit latency plus median forced latency, seconds."""
    return median(_latencies(requests, False)) + median(_latencies(requests, True))
