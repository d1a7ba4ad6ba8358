"""Content-addressed on-disk shard store: the cache tier that survives.

:class:`~repro.exec.cache.QueryResultCache` remembers finished (city, ISP)
shards in process memory; this module gives it a second tier that persists
across processes, CI runs, and experiment invocations.  The layout under
the store root is::

    <root>/
        manifest.json               # entry metadata + LRU clock
        objects/<dd>/<digest>.json  # one versioned file per shard

Every shard is addressed by the SHA-256 digest of its ordered
address-level cache keys — each of which already encodes (ISP, canonical
address, world seed, scale, config digest) — so the content *is* the
address: any configuration change produces a different digest and the old
entry is simply never looked up again.  The manifest records the
human-readable side of each key (city, ISP, seed, scale, config digest)
plus size and last-access order for eviction.

Durability rules:

* **Atomic shard writes.**  Entries are written to a temp file in the
  object directory and ``os.replace``-d into place, so a concurrent reader
  (or a crash mid-write) never observes a partial shard.  Two processes
  racing to write the same digest write byte-identical content — the
  replay is deterministic — so last-writer-wins is harmless.
* **Versioned serialization.**  Every entry embeds
  :data:`STORE_VERSION`; a version mismatch is a cache miss, never a
  crash — and the mismatched file is left on disk untouched, since it may
  be a *newer* format written by another code version sharing the root.
  Corrupted, truncated or wrong-typed entries are deleted on read and
  reported as misses.  An entry's ``meta`` is typed like its rows:
  ``city``, ``isp`` and ``config_digest`` are ``str``, ``seed`` is
  ``int`` and ``scale`` is ``int`` or ``float``, never ``bool``.
* **One decode per entry.**  :func:`observations_from_dicts` decodes an
  entry's rows in one pass: it type-checks every row, and builds each
  distinct plan list's :class:`~repro.dataset.records.PlanObservation`
  tuple once, shared by every row that carries that list (a shard of
  thousands of rows holds a few dozen lists).  :meth:`DiskShardStore.get`,
  :meth:`DiskShardStore.find_stale` and the remote executor's reply
  decoder all go through it.
* **LRU eviction under a byte cap.**  The manifest keeps a monotonic
  access clock; when ``max_bytes`` is set, the least-recently-used entries
  are evicted until the store fits.
* **Manifest is advisory.**  Object files are the source of truth: an
  entry present on disk but missing from the manifest (a cross-process
  manifest race, a deleted manifest) is adopted on first read.
* **Cross-process manifest writes are serialized and merged.**  Several
  processes share one store root routinely now — a coordinator plus its
  loopback workers, or CI's warm-cache passes — and each keeps its own
  in-memory manifest copy.  Every save takes an advisory ``flock`` on
  ``<root>/manifest.lock`` and *merges* the on-disk manifest into the
  outgoing one (rows for object files that still exist, the larger LRU
  clock) before the atomic replace, so a last-writer-wins race can no
  longer drop another process's rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

try:  # POSIX advisory file locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # runtime-lazy: repro.dataset imports repro.exec back
    from ..dataset.records import AddressObservation

__all__ = [
    "STORE_VERSION",
    "ShardMeta",
    "StoreEntry",
    "DiskShardStore",
    "shard_digest",
    "build_result_cache",
    "observation_to_dict",
    "observation_from_dict",
    "observations_from_dicts",
]

#: Serialization format version.  Bump on any change to the entry schema;
#: readers treat every other version as a miss.
STORE_VERSION = 1


def shard_digest(keys: Sequence[str]) -> str:
    """Content address of one shard: digest of its ordered address keys."""
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update(key.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass(frozen=True)
class ShardMeta:
    """Human-readable half of a shard's identity, kept in the manifest.

    The digest alone suffices for correctness; the metadata exists so a
    person (or the CI artifact step) can read the manifest and see *which*
    (city, ISP, seed, scale, config) each opaque entry belongs to.
    """

    city: str = ""
    isp: str = ""
    seed: int = 0
    scale: float = 0.0
    config_digest: str = ""


@dataclass(frozen=True)
class StoreEntry:
    """One manifest row: shard identity plus size and LRU position."""

    digest: str
    meta: ShardMeta
    n_observations: int
    n_bytes: int
    access: int


def observation_to_dict(obs: "AddressObservation") -> dict:
    """One observation as the JSON row the store entry format carries.

    Public because the entry format doubles as the coordinator/worker
    wire format: remote workers serialize freshly executed observations
    with this and the coordinator rehydrates them with
    :func:`observation_from_dict` — the same bytes either way as a
    disk-store round trip.
    """
    return {
        "address_id": obs.address_id,
        "city": obs.city,
        "block_group": obs.block_group,
        "isp": obs.isp,
        "status": obs.status,
        "elapsed_seconds": obs.elapsed_seconds,
        "plans": [
            {
                "name": p.name,
                "down": p.download_mbps,
                "up": p.upload_mbps,
                "price": p.monthly_price,
            }
            for p in obs.plans
        ],
    }


_ROW_FIELDS = itemgetter(
    "address_id", "city", "block_group", "isp", "status", "elapsed_seconds", "plans"
)
_PLAN_FIELDS = itemgetter("name", "down", "up", "price")
#: A number field's accepted types.
_NUMBER_TYPES = frozenset((int, float))
#: The fields of an entry's ``meta`` object, in :class:`ShardMeta` order.
_META_FIELDS = itemgetter(*(field.name for field in fields(ShardMeta)))


def observations_from_dicts(rows: Iterable[dict]) -> "tuple[AddressObservation, ...]":
    """Decode rows of the entry format (:func:`observation_to_dict`), in order.

    Every row is type-checked before it is decoded: ``address_id``,
    ``city``, ``block_group``, ``isp``, ``status`` and each plan's
    ``name`` must be ``str``; ``elapsed_seconds`` and each plan's
    ``down``, ``up`` and ``price`` must be ``int`` or ``float``; ``plans``
    must be a list of objects.  Types are matched exactly, so ``bool`` is
    refused where a number is due (JSON decoding makes no subclasses).
    The first violation, or a missing field, raises :class:`ValueError`.

    Each distinct plan list is decoded once and its tuple shared by every
    row that carries it.  The lists are matched by value, which is why
    the types are checked per row first: ``True``, ``1`` and ``1.0`` are
    one dict key.  So are ``0.0`` and ``-0.0``, so a list with a zero
    field is decoded on its own.
    """
    from ..dataset.records import AddressObservation, PlanObservation

    numbers = _NUMBER_TYPES
    plan_tuples: dict[tuple, tuple[PlanObservation, ...]] = {}
    decoded = []
    try:
        for row in rows:
            address_id, city, block_group, isp, status, elapsed, plans = _ROW_FIELDS(row)
            if not (
                type(address_id) is str
                and type(city) is str
                and type(block_group) is str
                and type(isp) is str
                and type(status) is str
                and type(elapsed) in numbers
                and type(plans) is list
            ):
                raise ValueError(f"wrong-typed field in observation row {row!r}")
            fields = tuple(map(_PLAN_FIELDS, plans))
            shared = True
            for name, down, up, price in fields:
                if not (
                    type(name) is str
                    and type(down) in numbers
                    and type(up) in numbers
                    and type(price) in numbers
                ):
                    raise ValueError(f"wrong-typed plan field in {plans!r}")
                if not (down and up and price):
                    shared = False
            plan_tuple = plan_tuples.get(fields) if shared else None
            if plan_tuple is None:
                plan_tuple = tuple(
                    [
                        PlanObservation(name, float(down), float(up), float(price))
                        for name, down, up, price in fields
                    ]
                )
                if shared:
                    plan_tuples[fields] = plan_tuple
            decoded.append(
                AddressObservation(
                    address_id, city, block_group, isp, status, plan_tuple,
                    float(elapsed),
                )
            )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed observation row: {exc!r}") from exc
    return tuple(decoded)


def observation_from_dict(row: dict) -> "AddressObservation":
    """One row of the entry format: :func:`observations_from_dicts` of one."""
    return observations_from_dicts((row,))[0]


class DiskShardStore:
    """Content-addressed, LRU-evicting, crash-safe store of shard results.

    Thread-safe within a process (one internal lock) and safe to share a
    root across processes: writes are atomic renames, the manifest is
    advisory, and racing writers of the same digest produce identical
    bytes.

    Args:
        root: Store directory (created on first use).
        max_bytes: Evict least-recently-used entries once the sum of entry
            sizes exceeds this; None means unbounded.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._objects = self.root / "objects"
        self._manifest_path = self.root / "manifest.json"
        self._lock_path = self.root / "manifest.lock"
        self._manifest = self._load_manifest()
        self._tmp_counter = 0
        self._dirty = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._manifest["entries"])

    def total_bytes(self) -> int:
        """Sum of entry sizes currently tracked by the manifest."""
        with self._lock:
            return sum(e["n_bytes"] for e in self._manifest["entries"].values())

    def entries(self) -> tuple[StoreEntry, ...]:
        """Manifest rows, least-recently-used first."""
        with self._lock:
            rows = sorted(
                self._manifest["entries"].items(), key=lambda kv: kv[1]["access"]
            )
        return tuple(
            StoreEntry(
                digest=digest,
                meta=ShardMeta(
                    city=row["city"],
                    isp=row["isp"],
                    seed=row["seed"],
                    scale=row["scale"],
                    config_digest=row["config_digest"],
                ),
                n_observations=row["n_observations"],
                n_bytes=row["n_bytes"],
                access=row["access"],
            )
            for digest, row in rows
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(
        self, keys: Sequence[str]
    ) -> "tuple[AddressObservation, ...] | None":
        """Load a shard by its address keys; None on miss/corruption.

        A successful read bumps the entry's LRU clock (persisted lazily —
        on the next mutation — so a hit never pays a manifest write).
        Corrupted or malformed files (wrong-typed fields included, see
        :func:`observations_from_dicts`) are deleted and reported as misses;
        a file with a *different serialization version* is left on disk
        untouched — it may belong to another code version sharing the
        store root — and only reported as a miss.
        """
        if not keys:
            return None
        digest = shard_digest(keys)
        path = self._object_path(digest)
        with self._lock:
            payload, corrupt = self._read_entry(path)
            if payload is None:
                if corrupt:
                    self._drop_entry(digest, path)
                elif not path.exists():
                    # Evicted/removed by another process: forget the row.
                    self._forget(digest)
                return None
            if payload.get("keys") != list(keys):
                # Same digest, different keys: tampered or hash-collided
                # content can never be served.
                self._drop_entry(digest, path)
                return None
            observations = self._decode(digest, path, payload)
            if observations is None:
                return None
            self._touch(digest, payload, path)
        return observations

    def find_stale(
        self,
        city: str,
        isp: str,
        seed: int | None = None,
        scale: float | None = None,
    ) -> "tuple[tuple[AddressObservation, ...], ShardMeta] | None":
        """Stale-while-revalidate read: the freshest (city, ISP) entry
        *regardless of config digest*.

        The content-addressed :meth:`get` can only answer "do I have
        exactly this shard?"; the serving tier's pre-congestion policy
        also needs "do I have *any* prior curation of this shard?" — a
        byte-exact result of some earlier configuration is a better
        overload answer than a 503.  The manifest already records each
        entry's (city, ISP, seed, scale), so this scans it newest-access
        first, optionally pinning ``seed``/``scale`` (pass both to
        guarantee the stale payload covers the same address sample).
        Returns ``(observations, meta)`` — callers compare
        ``meta.config_digest`` against the current one to decide whether
        the answer is actually stale — or None when nothing matches.
        Corrupt or wrong-typed candidates are dropped and the scan moves
        on to the next-newest.
        """
        with self._lock:
            candidates = sorted(
                (
                    (row["access"], digest)
                    for digest, row in self._manifest["entries"].items()
                    if row.get("city") == city
                    and row.get("isp") == isp
                    and (seed is None or row.get("seed") == seed)
                    and (scale is None or row.get("scale") == scale)
                ),
                reverse=True,
            )
            for _access, digest in candidates:
                path = self._object_path(digest)
                payload, corrupt = self._read_entry(path)
                if payload is None:
                    if corrupt:
                        self._drop_entry(digest, path)
                    continue
                observations = self._decode(digest, path, payload)
                if observations is None:
                    continue
                self._touch(digest, payload, path)
                return observations, ShardMeta(*_META_FIELDS(payload["meta"]))
        return None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(
        self,
        keys: Sequence[str],
        observations: "Iterable[AddressObservation]",
        meta: ShardMeta | None = None,
    ) -> str:
        """Persist one shard atomically; returns its digest.

        The entry is written next to its final location and renamed into
        place, so concurrent readers never see a partial file.  If the
        byte cap is exceeded afterwards, least-recently-used entries are
        evicted (the fresh entry is the most recent, so it survives unless
        it alone exceeds the cap).
        """
        keys = list(keys)
        digest = shard_digest(keys)
        meta = meta or ShardMeta()
        rows = [observation_to_dict(obs) for obs in observations]
        payload = {
            "version": STORE_VERSION,
            "digest": digest,
            "keys": keys,
            "meta": asdict(meta),
            "observations": rows,
        }
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        path = self._object_path(digest)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(path, blob)
            self._manifest["clock"] += 1
            self._manifest["entries"][digest] = {
                **asdict(meta),
                "n_observations": len(rows),
                "n_bytes": len(blob),
                "access": self._manifest["clock"],
            }
            self._evict_over_cap()
            self._save_manifest()
        return digest

    def purge(self) -> None:
        """Delete every entry and reset the manifest."""
        with self._lock:
            for digest in list(self._manifest["entries"]):
                self._unlink(self._object_path(digest))
            self._manifest = {"version": STORE_VERSION, "clock": 0, "entries": {}}
            # An explicit purge must win: merging would resurrect rows
            # another process wrote for the objects just deleted.
            self._save_manifest(merge=False)

    # ------------------------------------------------------------------
    # Internals (caller holds the lock)
    # ------------------------------------------------------------------
    def _object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def _atomic_write(self, path: Path, blob: bytes) -> None:
        self._tmp_counter += 1
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{self._tmp_counter}.tmp"
        )
        try:
            with tmp.open("wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            self._unlink(tmp)

    def _read_entry(self, path: Path) -> tuple[dict | None, bool]:
        """Parse one entry file: ``(payload, corrupt)``.

        ``(None, False)`` is a clean miss (file absent, or a foreign
        serialization version that must be left alone); ``(None, True)``
        is a corrupt file the caller should delete: unparseable, or a
        ``meta`` that breaks the type rule (module docstring).  The rows
        are checked when they are decoded (:func:`observations_from_dicts`).
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return None, False
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return None, True
        if not isinstance(payload, dict):
            return None, True
        if payload.get("version") != STORE_VERSION:
            return None, False
        if not isinstance(payload.get("observations"), list):
            return None, True
        try:
            city, isp, seed, scale, config_digest = _META_FIELDS(payload["meta"])
        except (KeyError, TypeError):
            return None, True
        if not (
            type(city) is str
            and type(isp) is str
            and type(seed) is int
            and type(scale) in _NUMBER_TYPES
            and type(config_digest) is str
        ):
            return None, True
        return payload, False

    def _decode(
        self, digest: str, path: Path, payload: dict
    ) -> "tuple[AddressObservation, ...] | None":
        """An entry's observations; a malformed entry is dropped (None)."""
        try:
            return observations_from_dicts(payload["observations"])
        except ValueError:
            self._drop_entry(digest, path)
            return None

    def _touch(self, digest: str, payload: dict, path: Path) -> None:
        # LRU bookkeeping only: recorded in memory and persisted on the
        # next mutating operation (put/evict/drop) or explicit flush(), so
        # a cache hit costs zero manifest writes.  A touch lost to a crash
        # only ages the entry in LRU order — never a correctness issue.
        entry = self._manifest["entries"].get(digest)
        if entry is None:
            # Adopted from disk: another process wrote it, or the manifest
            # was lost.  Reconstruct the row from the entry's embedded meta.
            entry = {
                **asdict(ShardMeta(*_META_FIELDS(payload["meta"]))),
                "n_observations": len(payload["observations"]),
                "n_bytes": self._file_size(path),
                "access": 0,
            }
            self._manifest["entries"][digest] = entry
        self._manifest["clock"] += 1
        entry["access"] = self._manifest["clock"]
        self._dirty = True

    def flush(self) -> None:
        """Persist any pending LRU touches to the manifest."""
        with self._lock:
            if self._dirty:
                self._save_manifest()

    def _forget(self, digest: str) -> None:
        if self._manifest["entries"].pop(digest, None) is not None:
            self._save_manifest()

    def _drop_entry(self, digest: str, path: Path) -> None:
        self._unlink(path)
        if self._manifest["entries"].pop(digest, None) is not None:
            self._save_manifest()

    def _evict_over_cap(self) -> None:
        if self.max_bytes is None:
            return
        entries = self._manifest["entries"]
        by_age = sorted(entries.items(), key=lambda kv: kv[1]["access"])
        total = sum(row["n_bytes"] for _, row in by_age)
        for digest, row in by_age:
            if total <= self.max_bytes:
                break
            self._unlink(self._object_path(digest))
            entries.pop(digest, None)
            total -= row["n_bytes"]

    def _load_manifest(self) -> dict:
        fresh = {"version": STORE_VERSION, "clock": 0, "entries": {}}
        try:
            data = json.loads(self._manifest_path.read_bytes())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return fresh
        if (
            not isinstance(data, dict)
            or data.get("version") != STORE_VERSION
            or not isinstance(data.get("entries"), dict)
            or not isinstance(data.get("clock"), int)
        ):
            return fresh
        # Older manifests carry a ``costs`` section of observed shard wall
        # times; nothing reads it, so the next save writes none.
        data.pop("costs", None)
        return data

    @contextlib.contextmanager
    def _manifest_file_lock(self):
        """Advisory cross-process lock around manifest read-modify-write.

        A no-op where :mod:`fcntl` is unavailable (non-POSIX) — there the
        manifest degrades to the old last-writer-wins behavior, which is
        still *safe* (objects are the source of truth; lost rows are
        re-adopted on read), just lossier.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self._lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _merge_disk_manifest(self) -> None:
        """Fold another process's manifest rows into the outgoing save.

        Called under both locks, immediately before writing.  Adopts
        entry rows we do not carry whose object file still exists (a row
        for a deleted file would be forgotten again on first read
        anyway) and the larger LRU clock — so concurrent writers sharing
        the root converge on the union instead of the last writer's view.
        """
        try:
            disk = json.loads(self._manifest_path.read_bytes())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return
        if (
            not isinstance(disk, dict)
            or disk.get("version") != STORE_VERSION
            or not isinstance(disk.get("entries"), dict)
        ):
            return
        entries = self._manifest["entries"]
        for digest, row in disk["entries"].items():
            if digest in entries or not isinstance(row, dict):
                continue
            if self._object_path(str(digest)).exists():
                entries[digest] = row
        disk_clock = disk.get("clock")
        if isinstance(disk_clock, int) and disk_clock > self._manifest["clock"]:
            self._manifest["clock"] = disk_clock

    def _save_manifest(self, merge: bool = True) -> None:
        self._dirty = False
        self.root.mkdir(parents=True, exist_ok=True)
        with self._manifest_file_lock():
            if merge:
                self._merge_disk_manifest()
            blob = json.dumps(self._manifest, indent=1, sort_keys=True).encode()
            self._tmp_counter += 1
            tmp = self._manifest_path.with_name(
                f".manifest.{os.getpid()}.{self._tmp_counter}.tmp"
            )
            try:
                tmp.write_bytes(blob)
                os.replace(tmp, self._manifest_path)
            finally:
                self._unlink(tmp)

    @staticmethod
    def _file_size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskShardStore(root={str(self.root)!r}, max_bytes={self.max_bytes})"


def build_result_cache(
    cache_dir: str | Path | None = None,
    max_bytes: int | None = None,
    enabled: bool = True,
):
    """Assemble a :class:`~repro.exec.cache.QueryResultCache` from knobs.

    With a ``cache_dir`` the cache gains an on-disk tier there, capped
    at ``max_bytes``; without one it is memory-only.  ``enabled=False``
    (the ``--no-cache`` flag) returns None — no caching at any tier.
    """
    from .cache import QueryResultCache

    if not enabled:
        return None
    if cache_dir is None:
        return QueryResultCache()
    return QueryResultCache(store=DiskShardStore(cache_dir, max_bytes=max_bytes))
