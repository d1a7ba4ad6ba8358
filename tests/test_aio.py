"""The asyncio query engine: transport, server, client stack, fleet.

Covers the four interop quadrants (sync/async client x threaded/async
server), keep-alive pooling on the event loop, and the guarantee that the
async engine returns byte-for-byte the same query outcomes as the
synchronous reference.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.addresses.database import AddressIndex
from repro.bat.app import BatApplication
from repro.bat.profiles import profile_for
from repro.core import AsyncBroadbandQueryTool, BroadbandQueryTool, ContainerFleet
from repro.errors import ConfigurationError, TransportError
from repro.exec import AsyncExecutor, SerialExecutor, ThreadPoolBackend
from repro.net import (
    AsyncTcpBatServer,
    AsyncTcpTransport,
    HttpRequest,
    HttpResponse,
    RealClock,
    TcpBatServer,
    TcpTransport,
    VirtualClock,
)
from repro.net.transport import RENDER_HEADER
from repro.world import offer_resolver


class _PingApp:
    hostname = "ping.example"

    def handle(self, request, client_ip, now):
        if request.method == "POST":
            form = request.form()
            body = f"<html>pong {form.get('n', '?')} from {client_ip}</html>"
        else:
            body = "<html>pong</html>"
        response = HttpResponse.html(body)
        response.set_header(RENDER_HEADER, "5.0")
        response.add_header("Set-Cookie", "sid=aio-test")
        return response


@pytest.fixture(scope="module")
def aserver():
    with AsyncTcpBatServer(_PingApp(), time_scale=0.0) as srv:
        yield srv


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Transport <-> server interop quadrants
# ----------------------------------------------------------------------
class TestAsyncRoundtrip:
    def test_async_client_async_server(self, aserver):
        async def go():
            transport = AsyncTcpTransport({aserver.hostname: aserver.address})
            response = await transport.send(
                HttpRequest.form_post("/check", {"n": "7"}),
                aserver.hostname,
                "73.5.5.5",
                RealClock(),
            )
            await transport.close()
            return response

        response = _run(go())
        assert response.status == 200
        assert "pong 7 from 73.5.5.5" in response.text()

    def test_render_header_stripped_and_cookie_survives(self, aserver):
        async def go():
            transport = AsyncTcpTransport({aserver.hostname: aserver.address})
            response = await transport.send(
                HttpRequest.get("/"), aserver.hostname, "73.5.5.5", RealClock()
            )
            await transport.close()
            return response

        response = _run(go())
        assert response.header(RENDER_HEADER) is None
        assert response.all_headers("Set-Cookie") == ["sid=aio-test"]

    def test_sync_client_against_async_server(self, aserver):
        """One-shot Connection: close clients work against the aio server."""
        transport = TcpTransport({aserver.hostname: aserver.address})
        for i in range(3):
            response = transport.send(
                HttpRequest.form_post("/check", {"n": str(i)}),
                aserver.hostname,
                "73.5.5.5",
                RealClock(),
            )
            assert f"pong {i}" in response.text()

    def test_sync_keepalive_client_against_async_server(self, aserver):
        transport = TcpTransport(
            {aserver.hostname: aserver.address}, keep_alive=True,
            fault_profile="off",
        )
        try:
            for i in range(5):
                response = transport.send(
                    HttpRequest.form_post("/check", {"n": str(i)}),
                    aserver.hostname,
                    "73.5.5.5",
                    RealClock(),
                )
                assert f"pong {i}" in response.text()
            assert len(transport._pools[aserver.hostname]._idle) == 1
        finally:
            transport.close()

    def test_async_client_against_threaded_server(self):
        with TcpBatServer(_PingApp(), time_scale=0.0) as srv:
            async def go():
                transport = AsyncTcpTransport(
                    {srv.hostname: srv.address}, fault_profile="off"
                )
                responses = []
                for i in range(4):
                    responses.append(
                        await transport.send(
                            HttpRequest.form_post("/check", {"n": str(i)}),
                            srv.hostname,
                            "73.5.5.5",
                            RealClock(),
                        )
                    )
                reused = transport.connections_reused
                await transport.close()
                return responses, reused

            responses, reused = _run(go())
        assert [r.status for r in responses] == [200] * 4
        # The upgraded threaded server honors keep-alive too.
        assert reused == 3

    def test_unknown_host_and_refused_connection(self):
        async def unknown():
            transport = AsyncTcpTransport({})
            await transport.send(
                HttpRequest.get("/"), "nope", "73.5.5.5", RealClock()
            )

        with pytest.raises(TransportError):
            _run(unknown())

        async def refused():
            transport = AsyncTcpTransport(
                {"dead.example": ("127.0.0.1", 1)}, timeout=0.5
            )
            await transport.send(
                HttpRequest.get("/"), "dead.example", "73.5.5.5", RealClock()
            )

        with pytest.raises(TransportError):
            _run(refused())

    def test_virtual_clock_nudged(self, aserver):
        async def go():
            transport = AsyncTcpTransport({aserver.hostname: aserver.address})
            clock = VirtualClock()
            await transport.send(
                HttpRequest.get("/"), aserver.hostname, "73.5.5.5", clock
            )
            await transport.close()
            return clock.now()

        assert _run(go()) > 0.0


class TestAsyncPooling:
    def test_sequential_sends_reuse_one_connection(self, aserver):
        async def go():
            transport = AsyncTcpTransport(
                {aserver.hostname: aserver.address}, fault_profile="off"
            )
            for i in range(6):
                await transport.send(
                    HttpRequest.form_post("/check", {"n": str(i)}),
                    aserver.hostname,
                    "73.6.6.6",
                    RealClock(),
                )
            stats = (transport.connections_opened, transport.connections_reused)
            await transport.close()
            return stats

        opened, reused = _run(go())
        assert opened == 1
        assert reused == 5

    def test_concurrent_sends_bounded_by_gate(self, aserver):
        async def go():
            transport = AsyncTcpTransport(
                {aserver.hostname: aserver.address},
                max_connections_per_host=4,
                fault_profile="off",
            )

            async def one(i):
                return await transport.send(
                    HttpRequest.form_post("/check", {"n": str(i)}),
                    aserver.hostname,
                    "73.7.7.7",
                    RealClock(),
                )

            responses = await asyncio.gather(*(one(i) for i in range(20)))
            stats = (transport.connections_opened, [r.status for r in responses])
            await transport.close()
            return stats

        opened, statuses = _run(go())
        assert statuses == [200] * 20
        assert opened <= 4  # the per-host bound held

    def test_pool_recovers_across_event_loops(self, aserver):
        """Parked sockets from a finished loop are discarded, not reused."""
        transport = AsyncTcpTransport(
            {aserver.hostname: aserver.address}, fault_profile="off"
        )

        async def one(i):
            response = await transport.send(
                HttpRequest.form_post("/check", {"n": str(i)}),
                aserver.hostname,
                "73.8.8.8",
                RealClock(),
            )
            return response.status

        assert _run(one(0)) == 200
        assert _run(one(1)) == 200  # second asyncio.run: fresh pool, no error


# ----------------------------------------------------------------------
# The async BQT client: same plan generator, same answers
# ----------------------------------------------------------------------
def _fresh_cox_app(tiny_world) -> BatApplication:
    city_world = tiny_world.city("new-orleans")
    return BatApplication(
        profile=profile_for("cox"),
        index=AddressIndex(tuple(city_world.book.canonical)),
        offers=offer_resolver({"new-orleans": city_world}, "cox"),
        seed=tiny_world.seed,
    )


class TestAsyncBqt:
    def test_async_query_matches_sync_query(self, tiny_world):
        entries = tiny_world.city("new-orleans").book.feed[:10]

        with TcpBatServer(_fresh_cox_app(tiny_world), time_scale=0.0) as srv:
            tool = BroadbandQueryTool(
                TcpTransport({srv.hostname: srv.address}),
                client_ip="24.11.22.33",
                clock=RealClock(),
                politeness_seconds=0.0,
            )
            sync_outcomes = [
                (r.status, r.plans, r.steps, r.resolved_line)
                for r in (tool.query_address("cox", e) for e in entries)
            ]

        with AsyncTcpBatServer(_fresh_cox_app(tiny_world), time_scale=0.0) as srv:
            async def go():
                transport = AsyncTcpTransport({srv.hostname: srv.address})
                tool = AsyncBroadbandQueryTool(
                    transport,
                    client_ip="24.11.22.33",
                    clock=RealClock(),
                    politeness_seconds=0.0,
                )
                results = []
                for entry in entries:
                    results.append(
                        await tool.query(
                            "cox", entry.street_line, entry.zip_code
                        )
                    )
                await transport.close()
                return [
                    (r.status, r.plans, r.steps, r.resolved_line)
                    for r in results
                ]

            async_outcomes = _run(go())

        assert async_outcomes == sync_outcomes
        assert any(status == "plans" for status, *_ in async_outcomes)


# ----------------------------------------------------------------------
# Fleet-level: the async engine is a drop-in executor backend
# ----------------------------------------------------------------------
class TestAsyncFleet:
    @pytest.fixture()
    def fleet_tasks(self, tiny_world):
        entries = tiny_world.city("new-orleans").book.feed[:30]
        return [("cox", e.street_line, e.zip_code) for e in entries]

    def test_async_fleet_matches_serial_fleet(self, tiny_world, fleet_tasks):
        with TcpBatServer(_fresh_cox_app(tiny_world), time_scale=0.0) as srv:
            serial = ContainerFleet(
                TcpTransport({srv.hostname: srv.address}),
                n_workers=6,
                seed=1,
                politeness_seconds=0.0,
                executor=SerialExecutor(),
            ).run(fleet_tasks)

        with TcpBatServer(_fresh_cox_app(tiny_world), time_scale=0.0) as srv:
            transport = AsyncTcpTransport({srv.hostname: srv.address})
            asynced = ContainerFleet(
                transport,
                n_workers=6,
                seed=1,
                politeness_seconds=0.0,
                executor=AsyncExecutor(),
            ).run(fleet_tasks)

        assert [r.status for r in asynced.results] == [
            r.status for r in serial.results
        ]
        assert [r.plans for r in asynced.results] == [
            r.plans for r in serial.results
        ]
        assert [r.input_line for r in asynced.results] == [
            r.input_line for r in serial.results
        ]

    def test_async_transport_requires_async_executor(self, tiny_world):
        transport = AsyncTcpTransport({"x": ("127.0.0.1", 1)})
        with pytest.raises(ConfigurationError, match="async"):
            ContainerFleet(transport, n_workers=2, executor=None).run(
                [("cox", "1 Oak St", "70112")]
            )
        with pytest.raises(ConfigurationError, match="async"):
            ContainerFleet(
                transport,
                n_workers=2,
                executor=ThreadPoolBackend(max_workers=2),
            ).run([("cox", "1 Oak St", "70112")])

    def test_async_executor_requires_async_transport(self):
        """The inverse misconfiguration: a blocking transport under the
        async executor would silently serialize, so it must raise."""
        with pytest.raises(ConfigurationError, match="async"):
            ContainerFleet(
                TcpTransport({"x": ("127.0.0.1", 1)}),
                n_workers=2,
                executor=AsyncExecutor(),
            ).run([("cox", "1 Oak St", "70112")])

    def test_async_executor_rejects_nested_loop(self):
        async def item(x):
            return x

        async def outer():
            AsyncExecutor().map(item, [1, 2])

        with pytest.raises(ConfigurationError, match="event loop"):
            _run(outer())
