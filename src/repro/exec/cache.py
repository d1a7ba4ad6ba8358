"""Content-addressed query-result cache for the curation pipeline.

Curation cost is dominated by replaying BQT queries, and most callers —
the test suite, ablation sweeps, the example scripts — re-curate worlds
that have not changed.  The cache remembers finished observations keyed by
the content that determines them:

``(isp, normalized address, world seed, scale)`` plus a digest of every
other input that shapes the result (sampling parameters, fleet size,
politeness, salt, latency model, ablation knobs).  Any change to any of
those inputs changes the key, so stale entries are never returned — there
is no explicit invalidation API because invalidation is the key.  The
key's bytes are laid out in one function, :func:`cache_key_deriver`;
:func:`shard_cache_keys` derives a whole shard's keys through one
deriver, which hashes the ISP prefix once, from canonical addresses that
:func:`~repro.addresses.normalize.address_keys` normalizes one distinct
street, unit and ZIP at a time, and :func:`address_cache_key` is its
one-key call.

Reuse is **shard-atomic**: a (city, ISP) shard is served from cache only
when *every* address in the shard is present.  Within a shard, query
outcomes share transport and server state (RTT draws, render-delay draws,
rate-limit windows), so replaying a partial shard against fresh state
would produce different timings than the cached remainder — mixing the two
would break the byte-identical-replay guarantee.  All-or-nothing reuse
keeps every curated dataset exactly equal to a from-scratch run.

The cache is **two-tier**: the in-memory entry table serves the running
process, and an optional :class:`~repro.exec.store.DiskShardStore` makes
results survive across processes — a fresh CI run or a second experiment
invocation loads finished shards from disk instead of replaying a single
BQT query.  Disk hits are promoted into the memory tier on first touch.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..addresses.normalize import address_keys, canonical_key
from ..errors import ConfigurationError
from .store import DiskShardStore, ShardMeta

if TYPE_CHECKING:  # runtime-lazy: repro.dataset imports this module back
    from ..addresses.noise import NoisyAddress
    from ..dataset.records import AddressObservation

__all__ = [
    "CacheStats",
    "QueryResultCache",
    "address_cache_key",
    "cache_key_deriver",
    "shard_cache_keys",
]


def cache_key_deriver(
    isp: str,
    world_seed: int,
    scale: float,
    context_digest: str = "",
) -> Callable[[str], str]:
    """``address_cache_key(isp, ·, ·, world_seed, scale, context_digest)``
    as a function of the address's
    :func:`~repro.addresses.normalize.canonical_key`.

    This is the one place the key's bytes are laid out: ``isp``, the
    canonical key, the seed's decimal string, ``repr(float(scale))`` and
    the context digest, each UTF-8 encoded and followed by a ``0x1f``
    byte, SHA-256, as lowercase hex.  The ``isp`` prefix is hashed once;
    each call copies that state and absorbs its canonical key and the
    constant tail in one update, so a shard's keys hash only what
    differs.
    """
    prefix = hashlib.sha256(f"{isp}\x1f".encode("utf-8"))
    tail = f"\x1f{int(world_seed)}\x1f{float(scale)!r}\x1f{context_digest}\x1f"

    def derive(canonical: str) -> str:
        hasher = prefix.copy()
        hasher.update(f"{canonical}{tail}".encode("utf-8"))
        return hasher.hexdigest()

    return derive


def address_cache_key(
    isp: str,
    street_line: str,
    zip_code: str,
    world_seed: int,
    scale: float,
    context_digest: str = "",
) -> str:
    """Content-addressed key for one (ISP, address) query outcome.

    The address is normalized first (case, whitespace, suffix
    abbreviations), so the same physical address always maps to the same
    key regardless of the feed's noisy spelling of the moment.  The
    one-key call of :func:`cache_key_deriver`.

    >>> a = address_cache_key("cox", "12 Oak Avenue", "70112", 42, 0.05)
    >>> a == address_cache_key("cox", "12 OAK AVE", "70112", 42, 0.05)
    True
    >>> a != address_cache_key("cox", "12 Oak Avenue", "70112", 43, 0.05)
    True
    """
    return cache_key_deriver(isp, world_seed, scale, context_digest)(
        canonical_key(street_line, zip_code)
    )


def shard_cache_keys(
    isp: str,
    tasks: "Sequence[NoisyAddress]",
    world_seed: int,
    scale: float,
    config_digest: str,
) -> tuple[str, ...]:
    """Content-addressed keys for one shard span's task list, in order.

    Keys address the *canonical* (truth) address: distinct feed entries
    can share a noisy public spelling, but never a canonical one, and for
    a fixed (seed, scale, config) the noisy spelling — hence the query
    outcome — is a pure function of the truth.  This is the one place the
    key stream is derived; the coordinator pipeline and remote workers
    both call it, which is what makes their store entries mutually
    addressable.  Every key shares one :func:`cache_key_deriver`, and
    :func:`~repro.addresses.normalize.address_keys` normalizes each
    distinct street, unit and ZIP of the span once.
    """
    derive = cache_key_deriver(isp, world_seed, scale, config_digest)
    keys, _buildings = address_keys([entry.truth for entry in tasks])
    return tuple([derive(key) for key in keys])


@dataclass
class CacheStats:
    """Running hit/miss counters (address-level granularity).

    ``shard_hits`` counts every served shard regardless of tier;
    ``disk_shard_hits`` counts the subset that came off disk (and was
    promoted into memory).  ``disk_stores`` counts shards persisted.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    shard_hits: int = 0
    shard_misses: int = 0
    disk_shard_hits: int = 0
    disk_stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class QueryResultCache:
    """Two-tier store of finished address observations.

    One instance can back many pipelines (the experiment context shares a
    process-wide cache across scales and seeds — distinct configurations
    occupy distinct keys).  Thread-safe: shard lookups and stores take an
    internal lock, so a thread-backed pipeline can share an instance.

    Args:
        store: Optional on-disk tier.  When set, shard stores are
            persisted and memory misses fall through to disk; a disk hit
            is promoted into the memory tier so the next lookup is free.
    """

    def __init__(self, store: DiskShardStore | None = None) -> None:
        self._entries: dict[str, AddressObservation] = {}
        self._lock = threading.Lock()
        self.store = store
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> AddressObservation | None:
        """Single-key peek (does not touch the hit/miss counters)."""
        with self._lock:
            return self._entries.get(key)

    def lookup_shard(
        self, keys: Sequence[str]
    ) -> tuple[AddressObservation, ...] | None:
        """Return the full shard's observations, or None on any miss.

        The memory tier is checked first; on a memory miss the disk tier
        (when attached) is consulted, and a disk hit is promoted into
        memory.  Accounting is per address: a served shard counts
        ``len(keys)`` hits regardless of tier; a miss counts ``len(keys)``
        misses (the whole shard will be re-queried).  An empty key set is
        never a hit — a zero-task shard goes to the executor, not the
        cache, so the counters stay honest.
        """
        if not keys:
            return None
        with self._lock:
            if all(key in self._entries for key in keys):
                self.stats.hits += len(keys)
                self.stats.shard_hits += 1
                return tuple(self._entries[key] for key in keys)
        if self.store is not None:
            observations = self.store.get(keys)
            if observations is not None and len(observations) == len(keys):
                with self._lock:
                    for key, observation in zip(keys, observations):
                        self._entries[key] = observation
                    self.stats.hits += len(keys)
                    self.stats.shard_hits += 1
                    self.stats.disk_shard_hits += 1
                return observations
        with self._lock:
            self.stats.misses += len(keys)
            self.stats.shard_misses += 1
        return None

    def store_shard(
        self,
        keys: Sequence[str],
        observations: Iterable[AddressObservation],
        meta: ShardMeta | None = None,
    ) -> None:
        """Record a freshly executed shard, one entry per address.

        ``meta`` labels the shard in the disk manifest (city, ISP, seed,
        scale, config digest); it is ignored by the memory tier.
        """
        observations = tuple(observations)
        if len(keys) != len(observations):
            raise ConfigurationError(
                f"{len(keys)} keys for {len(observations)} observations"
            )
        with self._lock:
            for key, observation in zip(keys, observations):
                self._entries[key] = observation
                self.stats.stores += 1
        if self.store is not None and keys:
            self.store.put(keys, observations, meta=meta)
            with self._lock:
                self.stats.disk_stores += 1

    def clear(self, disk: bool = False) -> None:
        """Drop every memory entry (counters are preserved).

        ``disk=True`` also purges the on-disk tier, when one is attached.
        """
        with self._lock:
            self._entries.clear()
        if disk and self.store is not None:
            self.store.purge()
