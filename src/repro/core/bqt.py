"""BQT — the Broadband-plan Querying Tool (the paper's contribution).

Public, single-client entry point: give it a transport (in-process or TCP),
an exit IP, and it will query any of the seven ISPs' BATs for the broadband
plans offered at a street address, handling every interstitial the BAT can
throw at it.  For fleet-scale curation use
:class:`repro.core.orchestrator.ContainerFleet`, which runs many of these
in parallel behind a residential proxy pool.
"""

from __future__ import annotations

import numpy as np

from ..addresses.noise import NoisyAddress
from ..errors import BqtError
from ..isp.providers import get_isp
from ..net.clock import Clock, VirtualClock
from ..net.transport import Transport
from ..seeding import derive_seed
from .webdriver import Browser
from .workflow import QueryResult, QueryWorkflow

__all__ = ["BroadbandQueryTool"]


class BroadbandQueryTool:
    """One BQT client instance (one browser, one exit IP).

    Args:
        transport: Where requests go (in-process simulation or TCP).
        client_ip: The residential exit IP this client presents.
        seed: Seed for stochastic workflow choices (random MDU unit).
        clock: Session clock; a fresh :class:`VirtualClock` by default.
        politeness_seconds: Pause inserted between consecutive queries so a
            single client never hammers a BAT (Section 4.2's ethical
            constraint).
    """

    def __init__(
        self,
        transport: Transport,
        client_ip: str = "203.0.113.1",
        seed: int = 0,
        clock: Clock | None = None,
        politeness_seconds: float = 5.0,
    ) -> None:
        self._transport = transport
        self._browser = Browser(
            transport, client_ip, clock if clock is not None else VirtualClock()
        )
        self._workflow = QueryWorkflow(
            self._browser, np.random.default_rng(derive_seed(seed, "bqt", client_ip))
        )
        self.politeness_seconds = politeness_seconds
        self._queries_run = 0

    @property
    def clock(self) -> Clock:
        return self._browser.clock

    @property
    def client_ip(self) -> str:
        return self._browser.client_ip

    def query(self, isp_name: str, street_line: str, zip_code: str) -> QueryResult:
        """Query one ISP for the plans offered at one street address."""
        if not street_line.strip():
            raise BqtError("street_line must be non-empty")
        host = get_isp(isp_name).bat_hostname
        if self._queries_run > 0 and self.politeness_seconds > 0:
            self._browser.clock.sleep(self.politeness_seconds)
        self._queries_run += 1
        # Announce the task boundary: on transports that support it (the
        # in-process simulation), the RTT and render-delay draws this query
        # consumes are derived from the query's content, so its observation
        # is independent of the queries that ran before it.  That purity is
        # what makes sub-shard chunk scheduling byte-exact.
        begin_task = getattr(self._transport, "begin_task", None)
        if begin_task is not None:
            begin_task(self.client_ip, isp_name, street_line, zip_code)
        return self._workflow.run(isp_name, host, street_line, zip_code)

    def query_address(self, isp_name: str, address: NoisyAddress) -> QueryResult:
        """Query using a feed entry (its noisy public spelling)."""
        return self.query(isp_name, address.street_line, address.zip_code)
