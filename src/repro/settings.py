"""Run settings: the one module that reads the ``REPRO_*`` environment.

Ten of the twelve variables are resolved once, at an edge (the CLIs,
:func:`repro.experiments.get_context`, the test fixtures), into a frozen
:class:`RunSettings`, with flags overriding the environment; code below
the edges takes values and never reads the environment.  Two stay
ambient because they must reach objects no edge builds: every socket
endpoint (:func:`ambient_fault_profile`) and every shard, in whatever
process runs it (:func:`ambient_columnar`).  An empty value means unset;
a malformed value raises :class:`~repro.errors.ConfigurationError`
naming the variable.  Imports nothing from :mod:`repro` when loaded, so
every layer can import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, TypeVar

__all__ = [
    "DEFAULT_COORDINATOR",
    "EXECUTOR_BACKENDS",
    "SCHEDULE_MODES",
    "RunSettings",
    "ambient_columnar",
    "ambient_fault_profile",
    "parse_chunk_tasks",
    "parse_coordinator_address",
    "parse_worker_addresses",
]

_T = TypeVar("_T")

#: Names accepted by ``--backend`` / ``REPRO_EXEC_BACKEND`` (and by
#: :func:`repro.exec.resolve_executor`).
EXECUTOR_BACKENDS: tuple[str, ...] = ("serial", "thread", "process", "remote")

#: Dispatch-order modes: ``"lpt"`` (longest processing time first, the
#: default) and ``"fifo"`` (enumeration order).
SCHEDULE_MODES: tuple[str, ...] = ("lpt", "fifo")

#: Coordinator address when elastic mode is on and nothing names one.  A
#: fixed port, not 0, because workers must be able to find it.
DEFAULT_COORDINATOR = "127.0.0.1:7070"

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_error(message: str) -> Exception:
    # repro.errors is a leaf module; importing it late keeps this module
    # free of repro imports at load time.
    from .errors import ConfigurationError

    return ConfigurationError(message)


def _host_port(raw: str, what: str) -> tuple[str, int]:
    """Parse one ``host:port``; ``what`` names the address in errors."""
    host, _, port = raw.strip().rpartition(":")
    if not host:
        raise _config_error(f"{what} {raw!r} is not host:port")
    try:
        return (host, int(port))
    except ValueError:
        raise _config_error(f"{what} {raw!r} has a non-integer port") from None


def parse_worker_addresses(raw: str) -> tuple[tuple[str, int], ...]:
    """Parse ``host:port,host:port,...`` into address tuples.

    >>> parse_worker_addresses("127.0.0.1:7071, 127.0.0.1:7072")
    (('127.0.0.1', 7071), ('127.0.0.1', 7072))
    """
    return tuple(
        _host_port(piece.strip(), "worker address")
        for piece in raw.split(",")
        if piece.strip()
    )


def parse_coordinator_address(raw: str) -> tuple[str, int]:
    """Parse one ``host:port`` coordinator address."""
    return _host_port(raw, "coordinator address")


def parse_chunk_tasks(raw: str) -> "int | str":
    """Parse a chunk-cap spec: an integer task count ``>= 1`` or ``auto``.

    The one parser behind both ``REPRO_CHUNK_TASKS`` and the CLIs'
    ``--chunk-tasks`` flag.
    """
    if raw.lower() == "auto":
        return "auto"
    try:
        value = int(raw)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise _config_error(
        f"chunk-tasks must be an integer >= 1 or 'auto', not {raw!r}"
    )


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(f"expected one of {'/'.join(_TRUE + _FALSE)}")


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return parse


def _read(name: str, parse: Callable[[str], _T], default: _T) -> _T:
    """One variable: unset or empty gives ``default``; bad input names it."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    from .errors import ConfigurationError

    try:
        return parse(raw)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"{name}={raw!r}: {exc}") from None


@dataclass(frozen=True)
class RunSettings:
    """Every edge-resolved knob of one run (frozen, hashable).

    Each field is named by its variable in ``_VARIABLES`` below; the
    README's "Run settings" table gives each one's flag and meaning.
    ``cache_dir=None`` is a memory-only cache and ``chunk_tasks=None``
    never splits a shard.
    """

    backend: str = "serial"
    remote_workers: tuple[tuple[str, int], ...] = ()
    elastic: bool = False
    coordinator: tuple[str, int] = parse_coordinator_address(DEFAULT_COORDINATOR)
    cache_dir: Path | None = None
    cache_max_bytes: int | None = None
    schedule: str = "lpt"
    chunk_tasks: int | str | None = None
    bench_scale: float = 0.12
    bench_min_samples: int = 10

    @classmethod
    def from_env(cls, **flags: object) -> "RunSettings":
        """Resolve every field; a keyword that is not None wins.

        The keywords are field names, and the CLI edges pass their parsed
        flags through them.  A variable is read, and parsed, only for a
        field whose keyword is absent or None.
        """
        given = {name: value for name, value in flags.items() if value is not None}
        read = {
            field.name: _read(*_VARIABLES[field.name], field.default)
            for field in fields(cls)
            if field.name not in given
        }
        return cls(**read, **given)


#: Field -> (variable, parser).
_VARIABLES: dict[str, tuple[str, Callable[[str], object]]] = {
    "backend": ("REPRO_EXEC_BACKEND", _choice(EXECUTOR_BACKENDS)),
    "remote_workers": ("REPRO_REMOTE_WORKERS", parse_worker_addresses),
    "elastic": ("REPRO_ELASTIC", _parse_bool),
    "coordinator": ("REPRO_COORDINATOR", parse_coordinator_address),
    "cache_dir": ("REPRO_CACHE_DIR", Path),
    "cache_max_bytes": ("REPRO_CACHE_MAX_BYTES", int),
    "schedule": ("REPRO_SCHEDULE", _choice(SCHEDULE_MODES)),
    "chunk_tasks": ("REPRO_CHUNK_TASKS", parse_chunk_tasks),
    "bench_scale": ("REPRO_BENCH_SCALE", float),
    "bench_min_samples": ("REPRO_BENCH_MIN_SAMPLES", int),
}


def ambient_fault_profile(parse: Callable[[str], _T]) -> "_T | None":
    """``REPRO_FAULT_PROFILE`` through ``parse`` (None when unset).

    Read by :func:`repro.net.faults.resolve_fault_profile` at every
    socket endpoint that was given no profile of its own; ``parse`` is
    that module's spec grammar.
    """
    return _read("REPRO_FAULT_PROFILE", parse, None)


def ambient_columnar() -> bool:
    """``REPRO_COLUMNAR``: whether shards try the columnar fast path.

    On by default.  Read per shard, in whatever process runs it, so the
    one variable reaches process-pool children and worker subprocesses.
    """
    return _read("REPRO_COLUMNAR", _parse_bool, True)
