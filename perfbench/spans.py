"""Spans around the program's layer entry points, installed from outside.

The traced run wraps each layer's public entry points where their callers
look them up (module globals and class attributes), records one span per
call in memory, and aggregates the spans per entry point and per layer
when the run ends.  Nothing in ``src/`` knows about it.

A span is ``[entry, layer, start, end, child_s, outer_entry, outer_layer,
parent_entry, attrs]``: ``child_s`` sums the durations of the spans
directly nested in it on the same thread, so its self time is
``end - start - child_s``; ``outer_*`` mark a span with no enclosing span
of the same entry (or layer), whose durations add up to busy time
without double counting.  Times are ``time.monotonic()``, which all
processes on one host share, so spans from the server, the worker and the
load generator can be filtered against one measurement window.

Per-element functions (``DomNode.walk``, the observation codecs) are not
wrapped: their callers are.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import math
import os
import threading
import time

from percentiles import percentile

# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, fn, entry: str, layer: str, before=None, after=None):
        """``fn`` wrapped to record one span per call.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, failed, token)``, which
        returns the span's attribute dict (or None).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            token = before(args, kwargs) if before is not None else None
            record = [
                entry, layer, tracer.clock(), 0.0, 0.0,
                all(open_[0] != entry for open_ in stack),
                all(open_[1] != layer for open_ in stack),
                stack[-1][0] if stack else "",
                None,
            ]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(record, stack)
                if after is not None:
                    record[8] = after(args, kwargs, None, True, token)
                raise
            tracer._close(record, stack)
            if after is not None:
                record[8] = after(args, kwargs, result, False, token)
            return result

        return traced

    def _close(self, record: list, stack: list) -> None:
        record[3] = self.clock()
        stack.pop()
        if stack:
            stack[-1][4] += record[3] - record[2]
        self.spans.append(record)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": list(self.spans)}, handle)


def load_spans(path) -> list[list]:
    with open(path) as handle:
        return json.load(handle)["spans"]


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _tasks_in(position: int, name: str):
    def after(args, kwargs, result, failed, token):
        return {"tasks": len(_arg(args, kwargs, position, name))}
    return after


def _lru_hits(args, kwargs):
    from repro.core.dom import parse_html_cached
    return parse_html_cached.cache_info().hits


def _lru_hit(args, kwargs, result, failed, token):
    from repro.core.dom import parse_html_cached
    return {"hit": int(parse_html_cached.cache_info().hits > token)}


def _found(args, kwargs, result, failed, token):
    return {"hit": int(result is not None)}


def _entry_bytes(store, digest: str) -> int:
    try:
        return os.stat(store._object_path(digest)).st_size
    except (AttributeError, OSError):
        return 0


def _get_bytes(args, kwargs, result, failed, token):
    if result is None:
        return {"bytes": 0}
    from repro.exec.store import shard_digest
    keys = _arg(args, kwargs, 1, "keys")
    return {"bytes": _entry_bytes(args[0], shard_digest(keys))}


def _put_bytes(args, kwargs, result, failed, token):
    return {"bytes": 0 if failed else _entry_bytes(args[0], result)}


def _failed(args, kwargs, result, failed, token):
    return {"failed": int(failed)}


def _refused(args, kwargs, result, failed, token):
    return {"refused": int(failed or not result.admitted)}


def _handled(args, kwargs, result, failed, token):
    return {
        "city": _arg(args, kwargs, 1, "city"),
        "isp": _arg(args, kwargs, 2, "isp"),
        "force": bool(kwargs.get("force", args[5] if len(args) > 5 else False)),
        "source": "" if failed else (result.source or str(result.status)),
    }


#: ``(module, attribute, entry, layer, before, after)``.  Several
#: attributes may share one entry: each call site resolves exactly one.
PATCHES = (
    ("repro.world", "_build_city", "world.build_city", "world", None, None),
    ("repro.dataset.curation", "sample_city",
     "dataset.sampling.sample_city", "dataset.sampling", None, None),
    ("repro.addresses.database", "AddressIndex.__init__",
     "addresses.AddressIndex.build", "addresses.database", None, None),
    ("repro.addresses.database", "AddressIndex.candidates",
     "addresses.AddressIndex.candidates", "addresses.database", None, None),
    ("repro.dataset.columnar", "run_shard_columnar",
     "dataset.columnar.run_shard_columnar", "dataset.columnar",
     None, _tasks_in(4, "tasks")),
    ("repro.core.orchestrator", "ContainerFleet.run",
     "core.ContainerFleet.run", "fallback", None, _tasks_in(1, "tasks")),
    ("repro.core.bqt", "BroadbandQueryTool.query",
     "core.BroadbandQueryTool.query", "fallback", None, None),
    ("repro.bat.app", "BatApplication.handle",
     "bat.BatApplication.handle", "fallback", None, None),
    ("repro.core.webdriver", "parse_html_cached",
     "core.dom.parse_html_cached", "fallback", _lru_hits, _lru_hit),
    ("repro.core.dom", "DomNode.select",
     "core.dom.DomNode.select", "fallback", None, None),
    ("repro.core.workflow", "plans_from_markup",
     "core.parsing.plans_from_markup", "fallback", None, None),
    ("repro.core.workflow", "best_suggestion",
     "core.matching.best_suggestion", "fallback", None, None),
    ("repro.exec.cache", "QueryResultCache.lookup_shard",
     "exec.cache.lookup_shard", "exec.cache", None, _found),
    ("repro.exec.cache", "QueryResultCache.store_shard",
     "exec.cache.store_shard", "exec.cache", None, None),
    ("repro.dataset.curation", "shard_cache_keys",
     "exec.cache.shard_cache_keys", "exec.cache", None, None),
    ("repro.serve.service", "shard_cache_keys",
     "exec.cache.shard_cache_keys", "exec.cache", None, None),
    ("repro.exec.cache", "shard_cache_keys",
     "exec.cache.shard_cache_keys", "exec.cache", None, None),
    ("repro.exec.store", "DiskShardStore.get",
     "exec.store.get", "exec.store", None, _get_bytes),
    ("repro.exec.store", "DiskShardStore.put",
     "exec.store.put", "exec.store", None, _put_bytes),
    ("repro.exec.store", "DiskShardStore.flush",
     "exec.store.flush", "exec.store", None, None),
    ("repro.exec.remote", "DistributedExecutor.map_specs",
     "exec.remote.map_specs", "remote", None, None),
    ("repro.net.rpc", "RpcClient.call",
     "net.rpc.RpcClient.call", "remote", None, _failed),
    ("repro.exec.remote", "spec_to_wire",
     "exec.spec.spec_to_wire", "remote", None, None),
    ("repro.dataset.worker", "WorkerState.handle_run_shard",
     "dataset.worker.handle_run_shard", "remote", None, None),
    # The worker's call site only: local backends run specs in-process,
    # which is the columnar/fallback layers' work, not remote dispatch.
    ("repro.dataset.worker", "run_shard_spec",
     "exec.spec.run_shard_spec", "remote", None, None),
    ("repro.serve.service", "ServeService.admit",
     "serve.admit", "serve", None, _refused),
    ("repro.serve.service", "ServeService.handle",
     "serve.handle", "serve", None, _handled),
    ("repro.serve.service", "shard_payload_digest",
     "serve.shard_payload_digest", "serve", None, None),
)

LAYERS = (
    "world", "dataset.sampling", "addresses.database", "dataset.columnar",
    "fallback", "exec.cache", "exec.store", "remote", "serve",
)
#: Layers whose work happens while the workload sets up; the rest are
#: measured over the timed phase.
SETUP_LAYERS = ("world",)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`PATCHES` (idempotent per name)."""
    wrapped: dict[int, object] = {}
    for module_name, attribute, entry, layer, before, after in PATCHES:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if id(original) not in wrapped:
            wrapped[id(original)] = tracer.wrap(original, entry, layer, before, after)
        setattr(owner, name, wrapped[id(original)])


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

#: Every per-layer metric, in report order: ``(name, unit, better)``.
PER_LAYER: list[tuple[str, str, str]] = []


def _metric(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER.append((name, unit, better))


def _entry_metrics(entry: str, *extra: tuple[str, str, str]) -> None:
    _metric(f"{entry}.calls", "count")
    _metric(f"{entry}.busy_s", "s")
    for suffix, unit, better in extra:
        _metric(f"{entry}.{suffix}", unit, better)


_entry_metrics("world.build_city")
_entry_metrics("dataset.sampling.sample_city")
_entry_metrics("addresses.AddressIndex.build")
_entry_metrics("addresses.AddressIndex.candidates")
_entry_metrics("dataset.columnar.run_shard_columnar", ("self_s", "s", "lower"))
_metric("dataset.columnar.fast_task_ratio", "ratio", "higher")
_entry_metrics("core.ContainerFleet.run", ("tasks", "count", "lower"))
_entry_metrics("core.BroadbandQueryTool.query")
_entry_metrics("bat.BatApplication.handle")
_entry_metrics("core.dom.parse_html_cached", ("hit_ratio", "ratio", "higher"))
_entry_metrics("core.dom.DomNode.select")
_entry_metrics("core.parsing.plans_from_markup")
_entry_metrics("core.matching.best_suggestion")
_entry_metrics("exec.cache.lookup_shard", ("hit_ratio", "ratio", "higher"))
_entry_metrics("exec.cache.store_shard")
_entry_metrics("exec.cache.shard_cache_keys")
_entry_metrics("exec.store.get", ("bytes", "bytes", "lower"))
_entry_metrics("exec.store.put", ("bytes", "bytes", "lower"))
_entry_metrics("exec.store.flush")
_entry_metrics("exec.remote.map_specs")
_entry_metrics("net.rpc.RpcClient.call", ("failed", "count", "lower"))
_entry_metrics("exec.spec.spec_to_wire")
_entry_metrics("dataset.worker.handle_run_shard")
_entry_metrics("exec.spec.run_shard_spec")
_metric("remote.rpc_overhead_s", "s")
_entry_metrics("serve.admit", ("refused", "count", "lower"))
_entry_metrics("serve.handle.cache")
_entry_metrics("serve.handle.executed")
_entry_metrics("serve.shard_payload_digest")
_metric("serve.wait_ms.p50", "ms")
_metric("serve.wait_ms.p99", "ms")
_metric("loadgen.sent", "count", "higher")
_metric("loadgen.failed", "count")
_metric("loadgen.lateness_p99_ms", "ms")
for _layer in LAYERS:
    _metric(f"layer.{_layer}.busy_s", "s")
    _metric(f"layer.{_layer}.self_s", "s")
    _metric(f"layer.{_layer}.share", "ratio")
_metric("trace.wall_s", "s")
_metric("trace.overhead_frac", "ratio")


def _within(start: float, windows) -> bool:
    """Whether ``start`` falls in one of the sorted, disjoint ``windows``."""
    index = bisect.bisect_right(windows, (start, math.inf)) - 1
    return index >= 0 and start <= windows[index][1]


def summarize(spans, run_windows, setup_windows) -> dict[str, float]:
    """Per-entry and per-layer totals of the spans in their windows.

    Layers in :data:`SETUP_LAYERS` count spans started in a set-up
    window, every other layer spans started in a run window.  A layer's
    share is its busy time over the total length of its windows.
    """
    run_windows = sorted(tuple(w) for w in run_windows)
    setup_windows = sorted(tuple(w) for w in setup_windows)
    run_wall = sum(hi - lo for lo, hi in run_windows)
    setup_wall = sum(hi - lo for lo, hi in setup_windows)
    entries: dict[str, dict[str, float]] = {}
    layers = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    fleet_tasks_in_columnar = 0.0
    for entry, layer, start, end, child_s, outer_entry, outer_layer, parent, attrs in spans:
        windows = setup_windows if layer in SETUP_LAYERS else run_windows
        if not _within(start, windows):
            continue
        if entry == "serve.handle":
            entry = f"serve.handle.{(attrs or {}).get('source') or 'failed'}"
        row = entries.setdefault(entry, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_s
        if outer_entry:
            row["busy_s"] += duration
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = row.get(key, 0) + value
        layers[layer]["self_s"] += duration - child_s
        if outer_layer:
            layers[layer]["busy_s"] += duration
        if entry == "core.ContainerFleet.run" and parent == "dataset.columnar.run_shard_columnar":
            fleet_tasks_in_columnar += (attrs or {}).get("tasks", 0)

    metrics: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        head, _, field = name.rpartition(".")
        row = entries.get(head)
        if field in ("calls", "busy_s", "self_s", "tasks", "bytes", "failed", "refused"):
            metrics[name] = float(row.get(field, 0.0)) if row else 0.0
        elif field == "hit_ratio":
            metrics[name] = row.get("hit", 0) / row["calls"] if row else 0.0
    columnar = entries.get("dataset.columnar.run_shard_columnar")
    metrics["dataset.columnar.fast_task_ratio"] = (
        1.0 - fleet_tasks_in_columnar / columnar["tasks"]
        if columnar and columnar.get("tasks") else 0.0
    )
    metrics["remote.rpc_overhead_s"] = (
        metrics["exec.remote.map_specs.busy_s"]
        - metrics["dataset.worker.handle_run_shard.busy_s"]
    )
    for layer, totals in layers.items():
        wall = setup_wall if layer in SETUP_LAYERS else run_wall
        metrics[f"layer.{layer}.busy_s"] = totals["busy_s"]
        metrics[f"layer.{layer}.self_s"] = totals["self_s"]
        metrics[f"layer.{layer}.share"] = totals["busy_s"] / wall if wall > 0 else 0.0
    metrics["trace.wall_s"] = run_wall
    return metrics


def idle_loadgen() -> dict[str, float]:
    """The load-generator and request-wait metrics of a workload with no
    load generator."""
    return {
        "loadgen.sent": 0.0,
        "loadgen.failed": 0.0,
        "loadgen.lateness_p99_ms": 0.0,
        "serve.wait_ms.p50": 0.0,
        "serve.wait_ms.p99": 0.0,
    }


def request_waits(requests, spans) -> list[float]:
    """Due-to-response time minus handler time, per request, in ms.

    ``requests`` are the load generator's ``(sent, done, latency_s, city,
    isp, force)``; each is matched to the ``serve.handle`` span of the
    same shard and kind that ran inside its send/receive interval.
    """
    handles: dict[tuple, list[tuple[float, float]]] = {}
    for entry, _layer, start, end, *_rest, attrs in spans:
        if entry == "serve.handle" and attrs:
            key = (attrs["city"], attrs["isp"], attrs["force"])
            handles.setdefault(key, []).append((start, end))
    waits = []
    for sent, done, latency, city, isp, force in requests:
        handler = next(
            (end - start for start, end in handles.get((city, isp, force), ())
             if sent <= start and end <= done),
            0.0,
        )
        waits.append((latency - handler) * 1000.0)
    return waits


def wait_percentiles(waits) -> dict[str, float]:
    """``serve.wait_ms.{p50,p99}``; the p99 needs 1000 requests."""
    if not waits:
        return {"serve.wait_ms.p50": 0.0, "serve.wait_ms.p99": 0.0}
    ranked = sorted(waits)
    try:
        p99 = percentile(ranked, 0.99)
    except ValueError:
        p99 = ranked[-1]
    return {
        "serve.wait_ms.p50": ranked[(len(ranked) - 1) // 2],
        "serve.wait_ms.p99": p99,
    }
