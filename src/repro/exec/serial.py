"""The serial reference backend: a plain loop in the calling thread."""

from __future__ import annotations

from .base import Executor
from .spec import run_shard_spec

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Runs every spec in submission order on the calling thread.

    This is the reference implementation the parallel backends are tested
    against: whatever dataset a parallel backend produces must be
    byte-identical to the serial one.
    """

    name = "serial"

    def map_specs(self, specs):
        return [run_shard_spec(spec) for spec in specs]
