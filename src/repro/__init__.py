"""repro — reproduction of "Decoding the Divide: Analyzing Disparities in
Broadband Plans Offered by Major US ISPs" (SIGCOMM 2023).

The package rebuilds the paper's entire measurement system in pure Python:

* :mod:`repro.core` — **BQT**, the broadband-plan querying tool (browser
  automation, template detection, suggestion matching, plan parsing,
  container-fleet orchestration);
* :mod:`repro.bat` — simulated per-ISP Broadband Availability Tool web
  services with realistic multi-step workflows and anti-scraping
  safeguards (the stand-in for the live ISP websites);
* :mod:`repro.net` — HTTP substrate with in-process and real-TCP
  transports, virtual clocks and a residential proxy pool;
* :mod:`repro.geo`, :mod:`repro.addresses`, :mod:`repro.isp` — synthetic
  census geography, a Zillow-like noisy address feed, and ground-truth ISP
  deployments/plans;
* :mod:`repro.dataset` — the stratified-sampling curation pipeline,
  sharded by (city, ISP) and backend-agnostic;
* :mod:`repro.exec` — pluggable execution backends (serial / thread /
  process) and the content-addressed query-result cache; every backend
  produces byte-identical datasets;
* :mod:`repro.analysis` — carriage values, Moran's I, one-tailed KS
  competition tests, income splits;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import build_world, WorldConfig, BroadbandQueryTool

    world = build_world(WorldConfig(scale=0.05, cities=("new-orleans",)))
    entry = world.city("new-orleans").book.feed[0]
    tool = BroadbandQueryTool(world.transport, client_ip="73.20.1.2")
    result = tool.query_address("cox", entry)
    print(result.status, result.best_cv)
"""

from ._lazy import lazy_exports

#: Each submodule and the names this package re-exports from it, imported
#: on first access, so importing one subpackage does not load them all.
_EXPORTS = {
    ".core.bqt": ("BroadbandQueryTool",),
    ".core.orchestrator": ("ContainerFleet",),
    ".core.workflow": ("QueryResult", "QueryStatus"),
    ".dataset.container": ("BroadbandDataset",),
    ".dataset.curation": ("CurationConfig", "CurationPipeline"),
    ".dataset.sampling": ("SamplingConfig",),
    ".errors": ("ReproError",),
    ".exec.base": ("Executor", "resolve_executor"),
    ".exec.cache": ("QueryResultCache",),
    ".exec.processes": ("ProcessPoolBackend",),
    ".exec.serial": ("SerialExecutor",),
    ".exec.threads": ("ThreadPoolBackend",),
    ".isp.plans": ("Plan", "carriage_value"),
    ".world": ("World", "WorldConfig", "build_world"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "0.1.0"

__all__ = [
    "BroadbandQueryTool",
    "ContainerFleet",
    "QueryResult",
    "QueryStatus",
    "CurationConfig",
    "CurationPipeline",
    "BroadbandDataset",
    "SamplingConfig",
    "ReproError",
    "Executor",
    "SerialExecutor",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "QueryResultCache",
    "resolve_executor",
    "Plan",
    "carriage_value",
    "World",
    "WorldConfig",
    "build_world",
    "__version__",
]
