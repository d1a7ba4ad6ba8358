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
  be a *newer* format written by another code version sharing the root
  (or an older one: a store filled before the column layout is re-filled
  entry by entry, as each ``put`` for the same keys replaces its file).
  Corrupted, truncated or wrong-typed entries are deleted on read and
  reported as misses.  An entry's ``meta`` is typed like its columns:
  ``city``, ``isp`` and ``config_digest`` are ``str``, ``seed`` is
  ``int`` and ``scale`` is ``int`` or ``float``, never ``bool``.
* **One codec, columns not rows.**  :func:`encode_entry` lays a shard
  out and :func:`decode_entry` reads it back; :meth:`DiskShardStore.put`,
  :meth:`~DiskShardStore.get` and :meth:`~DiskShardStore.find_stale`,
  the remote worker's ``run_shard`` reply and the coordinator's reply
  decoder all go through them.  An entry is::

      {"version": 2, "digest": ..., "keys": [...], "meta": {...},
       "columns": {
           "address_id": [...], "elapsed_seconds": [...],
           "city": [values, index], "block_group": [values, index],
           "isp": [values, index], "status": [values, index],
           "plans": [[[[name, down, up, price], ...], ...], index]}}

  ``address_id`` and ``elapsed_seconds`` hold one value per observation;
  every other column holds its distinct values once and one index into
  them per observation.  The ``plans`` values are the shard's distinct
  plan lists (a shard of thousands of observations holds a few dozen),
  so each list's :class:`~repro.dataset.records.PlanObservation` tuple
  is type-checked and built once and shared by every observation that
  carries it.
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
import struct
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
    from ..dataset.records import AddressObservation, PlanObservation

__all__ = [
    "STORE_VERSION",
    "ShardMeta",
    "StoreEntry",
    "DiskShardStore",
    "shard_digest",
    "build_result_cache",
    "decode_entry",
    "encode_entry",
    "observation_to_dict",
]

#: Serialization format version.  Bump on any change to the entry schema;
#: readers treat every other version as a miss.  Version 1 stored one JSON
#: object per observation; version 2 stores columns.
STORE_VERSION = 2
#: The manifest's own format version: its rows did not change with the
#: entries', so stores shared across the two entry versions keep one
#: manifest.
_MANIFEST_VERSION = 1


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
    """One observation as the JSON row the serving tier's HTTP payload
    carries, and :func:`~repro.serve.service.shard_payload_digest` hashes.

    Store entries and worker replies use the column layout of
    :func:`encode_entry` instead.
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


#: A number field's accepted types.
_NUMBER_TYPES = frozenset((int, float))
_STR_TYPES = frozenset((str,))
_INDEX_TYPES = frozenset((int,))
#: The fields of an entry's ``meta`` object, in :class:`ShardMeta` order.
_META_FIELDS = itemgetter(*(field.name for field in fields(ShardMeta)))
#: The dictionary-coded string columns, in ``AddressObservation`` order.
_STRING_COLUMNS = ("city", "block_group", "isp", "status")
#: A plan's three numbers as their exact IEEE-754 bits.
_PLAN_BITS = struct.Struct("<3d").pack


def _dictionary(values: Iterable[str]) -> list:
    """``[distinct values in first-seen order, index of each value]``."""
    positions: dict[str, int] = {}
    index = [positions.setdefault(value, len(positions)) for value in values]
    return [list(positions), index]


def _plan_dictionary(plan_lists: "Iterable[tuple]") -> list:
    """The ``plans`` column: ``[distinct plan lists, index of each]``.

    Lists are matched by object identity first (decoded and synthesized
    observations share their tuples), then by each plan's name and the
    exact bits of its numbers, so ``0.0`` and ``-0.0`` stay apart and
    lists that merge write the same JSON text.
    """
    by_identity: dict[int, int] = {}
    by_bits: dict[tuple, int] = {}
    table: list[list] = []
    index = []
    for plans in plan_lists:
        position = by_identity.get(id(plans))
        if position is None:
            bits = tuple(
                [
                    (p.name, _PLAN_BITS(p.download_mbps, p.upload_mbps, p.monthly_price))
                    for p in plans
                ]
            )
            position = by_bits.get(bits)
            if position is None:
                position = by_bits[bits] = len(table)
                table.append(
                    [
                        [p.name, p.download_mbps, p.upload_mbps, p.monthly_price]
                        for p in plans
                    ]
                )
            by_identity[id(plans)] = position
        index.append(position)
    return [table, index]


def encode_entry(
    keys: Sequence[str],
    observations: "Iterable[AddressObservation]",
    meta: ShardMeta,
) -> dict:
    """One shard as a store entry in the column layout (module docstring).

    :meth:`DiskShardStore.put` writes this dict as the entry file and a
    remote worker sends it as its ``run_shard`` reply;
    :func:`decode_entry` reads it back.
    """
    keys = list(keys)
    # Held for the whole encode: the plan lists are matched by id().
    observations = tuple(observations)
    columns = {
        "address_id": [obs.address_id for obs in observations],
        "elapsed_seconds": [obs.elapsed_seconds for obs in observations],
        "plans": _plan_dictionary([obs.plans for obs in observations]),
    }
    for name in _STRING_COLUMNS:
        columns[name] = _dictionary([getattr(obs, name) for obs in observations])
    return {
        "version": STORE_VERSION,
        "digest": shard_digest(keys),
        "keys": keys,
        "meta": asdict(meta),
        "columns": columns,
    }


def _only(values, types: frozenset) -> bool:
    """Whether ``values`` is a list whose items' types are all in ``types``.

    Types are matched exactly, so ``bool`` is not an ``int`` here (JSON
    decoding makes no other subclasses).
    """
    return type(values) is list and set(map(type, values)) <= types


def _indexed(pair, decode_values, length: int) -> list:
    """Expand a ``[values, index]`` column to one value per observation.

    ``decode_values`` checks and decodes the distinct values, once each.
    """
    if not (type(pair) is list and len(pair) == 2):
        raise ValueError(f"column {pair!r:.80} is not a [values, index] pair")
    values, index = pair
    if type(values) is not list:
        raise ValueError(f"column values {values!r:.80} are not an array")
    values = decode_values(values)
    if not _only(index, _INDEX_TYPES):
        raise ValueError(f"column index {index!r:.80} is not an array of integers")
    if len(index) != length:
        raise ValueError(f"column of {len(index)} rows in an entry of {length}")
    if index and not (min(index) >= 0 and max(index) < len(values)):
        raise ValueError(f"column index out of range for {len(values)} values")
    return list(map(values.__getitem__, index))


def _strings(values: list) -> list:
    if not _only(values, _STR_TYPES):
        raise ValueError(f"wrong-typed string in column values {values!r:.80}")
    return values


def _plan_lists(values: list) -> "list[tuple[PlanObservation, ...]]":
    """Each distinct plan list of an entry as a ``PlanObservation`` tuple."""
    from ..dataset.records import PlanObservation

    numbers = _NUMBER_TYPES
    decoded = []
    for plans in values:
        if type(plans) is not list:
            raise ValueError(f"plan list {plans!r:.80} is not an array")
        built = []
        for plan in plans:
            if not (type(plan) is list and len(plan) == 4):
                raise ValueError(f"plan {plan!r:.80} is not [name, down, up, price]")
            name, down, up, price = plan
            if not (
                type(name) is str
                and type(down) in numbers
                and type(up) in numbers
                and type(price) in numbers
            ):
                raise ValueError(f"wrong-typed plan field in {plan!r:.80}")
            built.append(PlanObservation(name, float(down), float(up), float(price)))
        decoded.append(tuple(built))
    return decoded


def decode_entry(entry: dict) -> "tuple[AddressObservation, ...]":
    """The observations of an entry :func:`encode_entry` laid out, in order.

    Raises :class:`ValueError` unless ``entry`` is a dict of
    :data:`STORE_VERSION` whose columns keep the type rule: strings are
    ``str``; numbers (``elapsed_seconds`` and each plan's ``down``, ``up``
    and ``price``) are ``int`` or ``float``, never ``bool``; each plan is
    a ``[name, down, up, price]`` array; every index is an ``int`` in
    range; and every column has one row per observation.  Each distinct
    value, plan lists included, is checked and decoded once.
    """
    from ..dataset.records import AddressObservation

    if type(entry) is not dict:
        raise ValueError(f"store entry {entry!r:.80} is not an object")
    version = entry.get("version")
    if version != STORE_VERSION:
        raise ValueError(
            f"store entry version {version!r}; this reader decodes version "
            f"{STORE_VERSION}"
        )
    try:
        columns = entry["columns"]
        if type(columns) is not dict:
            raise ValueError(f"entry columns {columns!r:.80} are not an object")
        address_ids = columns["address_id"]
        elapsed = columns["elapsed_seconds"]
        if not _only(address_ids, _STR_TYPES):
            raise ValueError("wrong-typed address_id column")
        if not _only(elapsed, _NUMBER_TYPES):
            raise ValueError("wrong-typed elapsed_seconds column")
        length = len(address_ids)
        if len(elapsed) != length:
            raise ValueError(f"column of {len(elapsed)} rows in an entry of {length}")
        strings = [
            _indexed(columns[name], _strings, length) for name in _STRING_COLUMNS
        ]
        plans = _indexed(columns["plans"], _plan_lists, length)
        return tuple(
            map(
                AddressObservation,
                address_ids,
                *strings,
                plans,
                map(float, elapsed),
            )
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed store entry: {exc!r}") from exc


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
        on the next mutation or :meth:`flush` — so a hit never pays a
        manifest write).  Corrupted or malformed files (wrong-typed fields
        included, see :func:`decode_entry`) are deleted and reported as
        misses; a file with a *different serialization version* is left on
        disk untouched — it may belong to another code version sharing the
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
            self._touch(digest, payload, path, len(observations))
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
                self._touch(digest, payload, path, len(observations))
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
        meta = meta or ShardMeta()
        entry = encode_entry(keys, observations, meta)
        digest = entry["digest"]
        blob = json.dumps(entry, separators=(",", ":")).encode("utf-8")
        path = self._object_path(digest)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(path, blob)
            self._manifest["clock"] += 1
            self._manifest["entries"][digest] = {
                **asdict(meta),
                "n_observations": len(entry["columns"]["address_id"]),
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
            self._manifest = {"version": _MANIFEST_VERSION, "clock": 0, "entries": {}}
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
        ``meta`` that breaks the type rule (module docstring).  The
        columns are checked when they are decoded (:func:`decode_entry`).
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
            return decode_entry(payload)
        except ValueError:
            self._drop_entry(digest, path)
            return None

    def _touch(
        self, digest: str, payload: dict, path: Path, n_observations: int
    ) -> None:
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
                "n_observations": n_observations,
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
        fresh = {"version": _MANIFEST_VERSION, "clock": 0, "entries": {}}
        try:
            data = json.loads(self._manifest_path.read_bytes())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return fresh
        if (
            not isinstance(data, dict)
            or data.get("version") != _MANIFEST_VERSION
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
            or disk.get("version") != _MANIFEST_VERSION
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
