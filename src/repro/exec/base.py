"""The executor protocol and backend registry.

An :class:`Executor` runs curation shard specs and returns their results
**in spec order** — the one contract every consumer in the library
relies on for determinism.  A spec is the library's only parallel unit:
a (city, ISP) shard, or a chunk of one, as pure data
(:class:`~repro.exec.spec.ShardSpec`).  Four interchangeable backends
implement :meth:`Executor.map_specs`:

* :class:`~repro.exec.serial.SerialExecutor` — a plain loop in the calling
  thread (the reference implementation; also the fastest choice for
  CPU-bound virtual-time simulation on a single core);
* :class:`~repro.exec.threads.ThreadPoolBackend` — a
  :class:`concurrent.futures.ThreadPoolExecutor`; pays off when specs
  block (paced curation, where every request sleeps its scaled latency);
* :class:`~repro.exec.processes.ProcessPoolBackend` — a
  :class:`concurrent.futures.ProcessPoolExecutor`; sidesteps the GIL for
  CPU-bound specs on multi-core hosts (specs pickle);
* :class:`~repro.exec.remote.DistributedExecutor` — specs shipped over
  RPC to ``python -m repro.dataset worker`` processes on any machine
  (``--remote-workers`` or an elastic fleet).

Because a spec is a pure function of configuration and derived seeds,
the choice of backend never changes results — only wall-clock time.  The
determinism parity tests in ``tests/test_exec_backends.py`` enforce this.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..settings import EXECUTOR_BACKENDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataset.records import AddressObservation
    from ..settings import RunSettings
    from .spec import ShardSpec

__all__ = [
    "Executor",
    "EXECUTOR_BACKENDS",
    "build_executor",
    "resolve_executor",
    "default_max_workers",
]


def default_max_workers() -> int:
    """Default pool width: the host's CPU count, floored at two.

    Even on a single-core host a width of two lets I/O-bound work overlap,
    which is the only parallelism that pays there.
    """
    return max(2, os.cpu_count() or 1)


class Executor(ABC):
    """Order-preserving executor of curation shard specs."""

    #: Registry key of the backend (``"serial"``, ``"thread"``,
    #: ``"process"``, ``"remote"``).
    name: str = "abstract"

    @property
    def width(self) -> int:
        """How many specs this backend runs concurrently.

        One for the serial backend; the pool width for the thread and
        process backends (they expose ``max_workers``).  The curation
        scheduler sizes sub-shard chunks from this so no single dispatch
        unit can serialize the tail of a run.
        """
        return int(getattr(self, "max_workers", 1))

    @abstractmethod
    def map_specs(
        self, specs: "Sequence[ShardSpec]"
    ) -> "list[tuple[tuple[AddressObservation, ...], float]]":
        """Run every spec; ``(observations, wall_seconds)`` in spec order.

        The local backends map :func:`~repro.exec.spec.run_shard_spec`
        over the specs; the remote backend ships them to worker
        processes.  The first exception in spec order propagates to the
        caller; partial results are discarded.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def resolve_executor(
    spec: "Executor | str | None",
    max_workers: int | None = None,
) -> Executor:
    """Turn a backend name (or an executor instance) into an executor.

    ``None`` resolves to the serial backend.  ``max_workers`` sizes the
    thread and process pools; the serial backend has no pool.  Only the
    named backend's module is imported (the backends import ``base``
    themselves), so a serial run never loads the pool or RPC machinery.
    A remote executor needs a fleet, which a name cannot carry:
    ``"remote"`` raises :class:`~repro.errors.ConfigurationError` naming
    :func:`build_executor`, as unknown names raise it too.
    """
    if spec is None:
        spec = "serial"
    if isinstance(spec, Executor):
        return spec
    if spec == "serial":
        from .serial import SerialExecutor

        return SerialExecutor()
    if spec == "thread":
        from .threads import ThreadPoolBackend

        return ThreadPoolBackend(max_workers=max_workers)
    if spec == "process":
        from .processes import ProcessPoolBackend

        return ProcessPoolBackend(max_workers=max_workers)
    if spec == "remote":
        raise ConfigurationError(
            "resolve_executor cannot build a remote fleet: pass "
            "build_executor(RunSettings.from_env()), which reads "
            "REPRO_REMOTE_WORKERS or REPRO_ELASTIC, or "
            "DistributedExecutor(workers=...) as the executor"
        )
    raise ConfigurationError(
        f"unknown executor backend {spec!r} "
        f"(available: {', '.join(EXECUTOR_BACKENDS)})"
    )


def build_executor(
    settings: "RunSettings", max_workers: int | None = None
) -> Executor:
    """The executor a resolved :class:`~repro.settings.RunSettings` names.

    Where the remote backend's fleet knobs become an object: a static
    fleet from ``settings.remote_workers``, or with ``settings.elastic``
    the process-wide membership coordinator bound to
    ``settings.coordinator``.
    """
    if settings.backend != "remote":
        return resolve_executor(settings.backend, max_workers)
    from .membership import ensure_coordinator
    from .remote import DistributedExecutor

    if settings.elastic:
        return DistributedExecutor(
            coordinator=ensure_coordinator(settings.coordinator)
        )
    return DistributedExecutor(workers=settings.remote_workers)
