"""Online serving tier: query API + PCN-style admission control.

The curation stack produces datasets; this package *serves* them.  The
architecture is three layers, innermost first:

* :mod:`repro.serve.admission` — a **sans-I/O admission-control core**
  (token buckets, a PCN-style virtual-queue load estimator, request
  classes, bounded queues, deadlines, a circuit breaker).  No sockets,
  no sleeps, injectable clock: every congestion transition is
  unit-testable deterministically, exactly like the fleet membership
  state machine.
* :mod:`repro.serve.service` — the query service: admission decision →
  two-tier cache lookup → (deadline-aware, cooperatively-cancellable)
  curation execution → payload whose digest is byte-identical to the
  serial curation path.
* :mod:`repro.serve.server` / :mod:`repro.serve.cli` — the HTTP
  endpoint (an app on the threaded server shell of :mod:`repro.net.conn`)
  and the ``python -m repro.dataset serve`` verb, with fault-profile
  injection so the server runs under the same chaos as every other
  endpoint.

The design point, from the PCN analytical study (PAPERS.md §Related
work): mark and shed load at *admission*, before queues explode, so the
interactive class keeps its p99 inside the SLO at 2x-capacity offered
load while batch traffic is shed with explicit 503 + Retry-After.
"""

from .admission import (
    ADMISSION_STATES,
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    Deadline,
    Decision,
    REQUEST_CLASSES,
    TokenBucket,
    VirtualQueue,
)
from .client import ServeClient
from .server import DatasetServeServer
from .service import ServeService, shard_payload_digest

__all__ = [
    "ADMISSION_STATES",
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "DatasetServeServer",
    "Deadline",
    "Decision",
    "REQUEST_CLASSES",
    "ServeClient",
    "ServeService",
    "TokenBucket",
    "VirtualQueue",
    "shard_payload_digest",
]
