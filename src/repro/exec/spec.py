"""Shard specs: the serializable unit of curation dispatch.

Before this module, a curation dispatch unit was a *closure*: the pipeline
built a callable over live world objects and handed it to an executor.
That works within one process (and, via pickling tricks, one machine) but
cannot cross a network boundary.  A :class:`ShardSpec` is the same unit as
**pure data** — (world configuration, city, ISP, curation configuration,
optional chunk span, config digest) — and :func:`run_shard_spec` is the
single entry point that rehydrates a spec into byte-identical work in any
process on any machine:

* every local backend (serial / thread / process) maps
  :func:`run_shard_spec` over specs via
  :meth:`repro.exec.base.Executor.map_specs`;
* the remote backend (:mod:`repro.exec.remote`) serializes specs with
  :func:`spec_to_wire`, ships them over :mod:`repro.net.rpc`, and a
  ``python -m repro.dataset worker`` process rehydrates them with
  :func:`spec_from_wire` and runs the same entry point.

Byte-identity holds because everything a shard touches is a pure function
of the spec: the city's ground truth (:func:`repro.world.build_city_world`
of ``(world config, city)``), the stratified task sample (seeds derived
from ``(seed, isp, geoid)``), and every stochastic draw inside the replay
(content-keyed per task since the scheduler PR).  The ``tasks`` field is a
**local fast path only** — a parent that already sampled the shard can
pre-slice the span so chunks skip re-sampling — and never crosses the
wire; a remote worker re-derives the identical sample.

Config serialization is a small recursive codec over the frozen config
dataclasses (world + curation knobs).  Tuples encode as JSON arrays and
decode back to tuples, so a round-tripped config compares equal to (and
hashes like) the original — which is what keys the worker-side memos.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..errors import ConfigurationError
from ..memo import Memo

if TYPE_CHECKING:  # runtime-lazy: repro.dataset imports repro.exec back
    from ..addresses.noise import NoisyAddress
    from ..dataset.curation import CurationConfig
    from ..dataset.records import AddressObservation
    from ..world import CityWorld, WorldConfig

__all__ = [
    "SPEC_WIRE_VERSION",
    "ShardSpec",
    "run_shard_spec",
    "spec_to_wire",
    "spec_from_wire",
    "spec_tasks",
    "full_shard_tasks",
    "spec_cache_keys",
    "seed_city_worlds",
    "release_city_worlds",
]

#: Wire-format version for serialized specs.  Bump on any change to the
#: spec schema or the config codec; a worker refuses mismatched versions
#: (coordinator and workers must run the same code to guarantee
#: byte-identical replays).
SPEC_WIRE_VERSION = 1


@dataclass(frozen=True)
class ShardSpec:
    """One dispatch unit of curation work, as pure data.

    Attributes:
        world: Full world configuration; any process can rebuild the
            shard's city ground truth from it.
        city: City key of the shard.
        isp: ISP key of the shard.
        config: Full curation configuration (sampling, fleet size,
            politeness, per-ISP overrides, pacing).
        start: First task of the span this unit replays.
        stop: One past the last task (None = to the end of the shard).
        config_digest: The shard's incremental-re-curation digest
            (:func:`repro.dataset.curation.shard_config_digest`); labels
            cache entries and scopes worker-side reuse.  Empty means
            "unknown" and disables worker-side caching for this spec.
        tasks: Pre-sliced span of the shard's canonical task list — a
            local fast path so chunks skip re-sampling the city.  Never
            serialized: a remote worker re-derives the identical sample
            from the rest of the spec.
    """

    world: "WorldConfig"
    city: str
    isp: str
    config: "CurationConfig"
    start: int = 0
    stop: int | None = None
    config_digest: str = ""
    tasks: "tuple[NoisyAddress, ...] | None" = None

    @property
    def span(self) -> tuple[int, int | None]:
        return (self.start, self.stop)


# ----------------------------------------------------------------------
# Config wire codec
# ----------------------------------------------------------------------
def _wire_classes() -> dict[str, type]:
    # Imported lazily: repro.dataset.curation imports repro.exec at module
    # load, so importing it here at module scope would be circular.
    from ..addresses.generator import AddressGeneratorConfig
    from ..addresses.noise import NoiseConfig
    from ..dataset.curation import CurationConfig, IspOverride
    from ..dataset.sampling import SamplingConfig
    from ..isp.deployment import DeploymentConfig
    from ..isp.offers import OfferConfig
    from ..net.latency import LatencyModel
    from ..world import WorldConfig

    return {
        cls.__name__: cls
        for cls in (
            WorldConfig,
            AddressGeneratorConfig,
            NoiseConfig,
            DeploymentConfig,
            OfferConfig,
            LatencyModel,
            CurationConfig,
            SamplingConfig,
            IspOverride,
        )
    }


def _encode_value(value: Any) -> Any:
    """Recursively encode a config value into JSON-safe data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _wire_classes():
            raise ConfigurationError(
                f"{name} is not a wire-serializable configuration class"
            )
        return {
            "__kind__": name,
            "fields": {
                f.name: _encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (tuple, list)):
        return [_encode_value(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ConfigurationError(
        f"cannot serialize configuration value of type {type(value).__name__}"
    )


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value` (JSON lists become tuples)."""
    if isinstance(value, Mapping):
        try:
            cls = _wire_classes()[value["__kind__"]]
            fields = value["fields"]
        except KeyError as exc:
            raise ConfigurationError(f"malformed config wire value: {exc}") from None
        return cls(**{key: _decode_value(item) for key, item in fields.items()})
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    return value


def spec_to_wire(spec: ShardSpec) -> dict:
    """Serialize a spec for the RPC wire (drops the local-only ``tasks``)."""
    return {
        "version": SPEC_WIRE_VERSION,
        "city": spec.city,
        "isp": spec.isp,
        "start": spec.start,
        "stop": spec.stop,
        "config_digest": spec.config_digest,
        "world": _encode_value(spec.world),
        "config": _encode_value(spec.config),
    }


def spec_from_wire(wire: Mapping) -> ShardSpec:
    """Rehydrate a spec serialized by :func:`spec_to_wire`."""
    if not isinstance(wire, Mapping):
        raise ConfigurationError(f"spec wire payload must be a mapping, not {type(wire).__name__}")
    version = wire.get("version")
    if version != SPEC_WIRE_VERSION:
        raise ConfigurationError(
            f"spec wire version {version!r} does not match this worker's "
            f"{SPEC_WIRE_VERSION} (coordinator and workers must run the "
            "same code)"
        )
    try:
        return ShardSpec(
            world=_decode_value(wire["world"]),
            city=str(wire["city"]),
            isp=str(wire["isp"]),
            config=_decode_value(wire["config"]),
            start=int(wire["start"]),
            stop=None if wire.get("stop") is None else int(wire["stop"]),
            config_digest=str(wire.get("config_digest", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed shard spec: {exc}") from None


# ----------------------------------------------------------------------
# Rehydration memos
# ----------------------------------------------------------------------
# City ground truth is a pure (and expensive) function of (world config,
# city).  The coordinator pre-seeds this memo with its already-built
# cities before dispatching to a local backend (fork-started process
# workers inherit the seeded table; threads share it outright), and a
# remote worker fills it on first touch, once per city however many RPC
# connections miss on it together.
_CITY_WORLDS: "Memo[tuple[WorldConfig, str], CityWorld]" = Memo()

# The canonical task sample of one whole (city, ISP) shard, keyed by
# everything the sample is a function of: world config, coordinates, and
# the *sampling* knobs (two specs may share coordinates but sample
# differently).  Chunked specs of the same shard slice this instead of
# re-sampling the city per chunk.  Bounded: a worker cycles through a
# handful of shards at a time.
_SHARD_TASKS: "Memo[tuple, tuple[NoisyAddress, ...]]" = Memo(maxsize=32)


def seed_city_worlds(
    worlds: "Mapping[tuple[WorldConfig, str], CityWorld]",
) -> "list[tuple[WorldConfig, str]]":
    """Pre-seed the city memo with already-built cities.

    Returns the keys that were actually inserted (not already present),
    so the caller can release exactly those afterwards.
    """
    return [
        key
        for key, city_world in worlds.items()
        if _CITY_WORLDS.put_if_absent(key, city_world)
    ]


def release_city_worlds(keys: "Iterable[tuple[WorldConfig, str]]") -> None:
    """Drop previously seeded cities from the memo."""
    for key in keys:
        _CITY_WORLDS.pop(key)


def _city_world_for(world_config: "WorldConfig", city: str) -> "CityWorld":
    from ..world import build_city_world

    return _CITY_WORLDS.get(
        (world_config, city), lambda: build_city_world(world_config, city)
    )


def full_shard_tasks(spec: ShardSpec) -> "tuple[NoisyAddress, ...]":
    """The whole shard's canonical task sample (ignores the chunk span)."""
    from ..dataset.curation import _shard_tasks

    def build() -> "tuple[NoisyAddress, ...]":
        city_world = _city_world_for(spec.world, spec.city)
        return tuple(
            _shard_tasks(
                city_world, spec.isp, spec.config.sampling, spec.world.seed
            )
        )

    key = (spec.world, spec.city, spec.isp, spec.config.sampling)
    return _SHARD_TASKS.get(key, build)


def spec_tasks(spec: ShardSpec) -> "tuple[NoisyAddress, ...]":
    """The task span this spec replays (pre-sliced or re-derived)."""
    if spec.tasks is not None:
        return spec.tasks
    return full_shard_tasks(spec)[spec.start : spec.stop]


def spec_cache_keys(
    spec: ShardSpec, tasks: "Sequence[NoisyAddress]"
) -> tuple[str, ...]:
    """Content-addressed cache keys of a spec's task span.

    Byte-for-byte the keys the coordinator's pipeline computes for the
    same span — both sides go through
    :func:`repro.exec.cache.shard_cache_keys` — so a worker-side store
    entry is addressable by the coordinator and vice versa.
    """
    from .cache import shard_cache_keys

    return shard_cache_keys(
        spec.isp,
        tasks,
        spec.world.seed,
        spec.world.scale,
        spec.config_digest,
    )


def run_shard_spec(
    spec: ShardSpec,
) -> "tuple[tuple[AddressObservation, ...], float]":
    """Execute one dispatch unit: the single entry point for every backend.

    Rehydrates the spec's city (memoized per process), resolves its task
    span, and replays the span against fresh per-shard server state.
    Returns ``(observations, wall_seconds)``; the wall time is measured
    here — inside whatever process runs the spec — so chunk costs sum to
    the shard's serial replay cost on every backend, local or remote.
    Task preparation stays outside the timed region, matching the
    pre-sampled fast path.
    """
    from ..dataset.curation import _shard_observations

    city_world = _city_world_for(spec.world, spec.city)
    tasks = list(spec_tasks(spec))
    started = time.monotonic()
    observations = _shard_observations(
        spec.world, city_world, spec.isp, spec.config, tasks=tasks
    )
    return observations, time.monotonic() - started
