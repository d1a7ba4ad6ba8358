"""Tests for the network substrate: HTTP, clocks, cookies, transports."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    ProxyPoolExhaustedError,
    TransportError,
)
from repro.net import (
    CookieJar,
    HttpRequest,
    HttpResponse,
    InProcessTransport,
    LatencyModel,
    RealClock,
    ResidentialProxyPool,
    VirtualClock,
    decode_form,
    encode_form,
    parse_set_cookie,
)
from repro.net.transport import RENDER_HEADER


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_sleep_advances(self):
        clock = VirtualClock()
        clock.sleep(12.5)
        clock.sleep(0.5)
        assert clock.now() == 13.0

    def test_negative_sleep_raises(self):
        with pytest.raises(ConfigurationError):
            VirtualClock().sleep(-1.0)

    def test_advance_to(self):
        clock = VirtualClock(start=5.0)
        clock.advance_to(10.0)
        assert clock.now() == 10.0
        clock.advance_to(3.0)  # no-op backwards
        assert clock.now() == 10.0

    def test_real_clock_monotonic(self):
        clock = RealClock()
        a = clock.now()
        clock.sleep(0.0)
        assert clock.now() >= a


class TestForms:
    def test_roundtrip(self):
        fields = {"address": "12 Oak St #3", "zip": "70112"}
        assert decode_form(encode_form(fields)) == fields

    def test_encode_spaces(self):
        assert encode_form({"a": "x y"}) == b"a=x+y"

    def test_decode_empty(self):
        assert decode_form(b"") == {}

    def test_percent_literals_decode_exactly_once(self):
        """Regression: keys were percent-decoded twice (parse_qsl already
        unquotes), so a literal ``%25xx`` in a key came back mangled."""
        assert decode_form(b"a%2525=x") == {"a%25": "x"}
        fields = {"k%25": "v%", "100%": "yes"}
        assert decode_form(encode_form(fields)) == fields

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=20),
            st.text(max_size=20),
            max_size=8,
        )
    )
    def test_encode_decode_roundtrip_property(self, fields):
        assert decode_form(encode_form(fields)) == fields


class TestHttpMessages:
    def test_request_roundtrip(self):
        request = HttpRequest.form_post("/check", {"addr": "12 Oak Ave"})
        request.set_header("Cookie", "sid=abc")
        parsed = HttpRequest.from_bytes(request.to_bytes("bat.example"))
        assert parsed.method == "POST"
        assert parsed.path == "/check"
        assert parsed.header("Cookie") == "sid=abc"
        assert parsed.form() == {"addr": "12 Oak Ave"}

    def test_response_roundtrip(self):
        response = HttpResponse.html("<html>hi &amp; bye</html>")
        response.add_header("Set-Cookie", "a=1")
        response.add_header("Set-Cookie", "b=2")
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.status == 200
        assert parsed.text() == "<html>hi &amp; bye</html>"
        assert parsed.all_headers("Set-Cookie") == ["a=1", "b=2"]

    def test_header_names_case_insensitive(self):
        request = HttpRequest("get", "/", headers={"content-type": ["x"]})
        assert request.header("Content-Type") == "x"

    def test_method_uppercased(self):
        assert HttpRequest("post", "/").method == "POST"

    def test_ok_property(self):
        assert HttpResponse(200).ok
        assert not HttpResponse(429).ok

    def test_malformed_request_raises(self):
        with pytest.raises(TransportError):
            HttpRequest.from_bytes(b"")
        with pytest.raises(TransportError):
            HttpRequest.from_bytes(b"BROKEN\r\n\r\n")

    def test_malformed_response_raises(self):
        for raw in (
            b"",
            b"BROKEN\r\n\r\n",
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 \xff200 OK\r\n\r\n",
        ):
            with pytest.raises(TransportError, match="HTTP response|status line"):
                HttpResponse.from_bytes(raw)

    def test_body_with_utf8(self):
        response = HttpResponse.html("café ☕")
        assert HttpResponse.from_bytes(response.to_bytes()).text() == "café ☕"


class TestTornMessages:
    """Regression: the parsers must validate body length against
    Content-Length — a message torn mid-header or mid-body used to parse
    as complete with a short body."""

    REQUEST = HttpRequest.form_post("/check", {"addr": "12 Oak Ave"}).to_bytes(
        "bat.example"
    )
    RESPONSE = HttpResponse.html("<html>hello there</html>").to_bytes()

    def test_torn_request_header_raises(self):
        torn = self.REQUEST[: self.REQUEST.index(b"\r\n\r\n")]
        with pytest.raises(TransportError, match="no header terminator"):
            HttpRequest.from_bytes(torn)

    def test_torn_request_body_raises(self):
        with pytest.raises(TransportError, match="truncated HTTP request"):
            HttpRequest.from_bytes(self.REQUEST[:-3])

    def test_request_with_extra_body_bytes_raises(self):
        with pytest.raises(TransportError, match="truncated HTTP request"):
            HttpRequest.from_bytes(self.REQUEST + b"overrun")

    def test_torn_response_header_raises(self):
        torn = self.RESPONSE[: self.RESPONSE.index(b"\r\n\r\n")]
        with pytest.raises(TransportError, match="no header terminator"):
            HttpResponse.from_bytes(torn)

    def test_torn_response_body_raises(self):
        with pytest.raises(TransportError, match="truncated HTTP response"):
            HttpResponse.from_bytes(self.RESPONSE[:-5])

    def test_every_strict_prefix_of_a_request_raises(self):
        for cut in range(len(self.REQUEST)):
            with pytest.raises(TransportError):
                HttpRequest.from_bytes(self.REQUEST[:cut])

    def test_complete_messages_still_parse(self):
        assert HttpRequest.from_bytes(self.REQUEST).form() == {
            "addr": "12 Oak Ave"
        }
        assert HttpResponse.from_bytes(self.RESPONSE).status == 200


class TestCookieJar:
    def test_parse_set_cookie(self):
        assert parse_set_cookie("sid=abc123; Path=/; HttpOnly") == ("sid", "abc123")

    def test_update_and_apply(self):
        jar = CookieJar()
        response = HttpResponse(200)
        response.add_header("Set-Cookie", "sid=abc; Path=/")
        response.add_header("Set-Cookie", "tok=xyz")
        jar.update_from_response("host-a", response)
        request = HttpRequest.get("/")
        jar.apply("host-a", request)
        assert request.header("Cookie") == "sid=abc; tok=xyz"

    def test_hosts_isolated(self):
        jar = CookieJar()
        response = HttpResponse(200)
        response.add_header("Set-Cookie", "sid=abc")
        jar.update_from_response("host-a", response)
        request = HttpRequest.get("/")
        jar.apply("host-b", request)
        assert request.header("Cookie") is None

    def test_overwrite(self):
        jar = CookieJar()
        for value in ("1", "2"):
            response = HttpResponse(200)
            response.add_header("Set-Cookie", f"tok={value}")
            jar.update_from_response("h", response)
        assert jar.get("h", "tok") == "2"

    def test_clear(self):
        jar = CookieJar()
        response = HttpResponse(200)
        response.add_header("Set-Cookie", "sid=abc")
        jar.update_from_response("h", response)
        jar.clear("h")
        assert jar.cookies_for("h") == {}


class TestLatencyModel:
    def test_zero_model(self):
        rng = np.random.default_rng(0)
        assert LatencyModel.zero().sample_rtt(rng) == 0.0

    def test_positive_samples(self):
        rng = np.random.default_rng(0)
        model = LatencyModel(base_rtt=0.1, sigma=0.5)
        samples = [model.sample_rtt(rng) for _ in range(100)]
        assert all(s > 0 for s in samples)

    def test_median_near_base(self):
        rng = np.random.default_rng(0)
        model = LatencyModel(base_rtt=0.1, sigma=0.3)
        samples = [model.sample_rtt(rng) for _ in range(2000)]
        assert np.median(samples) == pytest.approx(0.1, rel=0.1)

    def test_residential_heavier(self):
        assert (
            LatencyModel.residential_proxy().base_rtt > LatencyModel().base_rtt
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(base_rtt=-1.0)


class _EchoApp:
    """Minimal BatServerApp echoing the request path with a render delay."""

    hostname = "echo.example"

    def __init__(self, render_seconds: float = 2.0) -> None:
        self.render_seconds = render_seconds
        self.seen_ips: list[str] = []

    def handle(self, request, client_ip, now):
        self.seen_ips.append(client_ip)
        response = HttpResponse.html(f"<html>{request.path}</html>")
        response.set_header(RENDER_HEADER, str(self.render_seconds))
        return response


class TestInProcessTransport:
    def test_dispatch_and_render_accounting(self):
        transport = InProcessTransport(latency=LatencyModel.zero())
        app = _EchoApp(render_seconds=3.0)
        transport.register(app)
        clock = VirtualClock()
        response = transport.send(
            HttpRequest.get("/x"), "echo.example", "1.2.3.4", clock
        )
        assert response.text() == "<html>/x</html>"
        assert clock.now() == pytest.approx(3.0)
        # The internal render header never leaks to the client.
        assert response.header(RENDER_HEADER) is None

    def test_rtt_added(self):
        transport = InProcessTransport(latency=LatencyModel(0.5, sigma=0.0))
        transport.register(_EchoApp(render_seconds=0.0))
        clock = VirtualClock()
        transport.send(HttpRequest.get("/"), "echo.example", "1.2.3.4", clock)
        assert clock.now() == pytest.approx(0.5)

    def test_unknown_host_raises(self):
        transport = InProcessTransport()
        with pytest.raises(TransportError):
            transport.send(HttpRequest.get("/"), "nope", "1.2.3.4", VirtualClock())

    def test_request_counts(self):
        transport = InProcessTransport(latency=LatencyModel.zero())
        transport.register(_EchoApp())
        clock = VirtualClock()
        for _ in range(3):
            transport.send(HttpRequest.get("/"), "echo.example", "1.1.1.1", clock)
        assert transport.request_count("echo.example") == 3

    def test_client_ip_forwarded(self):
        transport = InProcessTransport(latency=LatencyModel.zero())
        app = _EchoApp()
        transport.register(app)
        transport.send(HttpRequest.get("/"), "echo.example", "9.8.7.6", VirtualClock())
        assert app.seen_ips == ["9.8.7.6"]

    def test_overload_degrades_render_time(self):
        transport = InProcessTransport(
            latency=LatencyModel.zero(), server_capacity=10
        )
        transport.register(_EchoApp(render_seconds=1.0))
        clock = VirtualClock()
        transport.concurrency = 40  # 4x over capacity
        transport.send(HttpRequest.get("/"), "echo.example", "1.1.1.1", clock)
        assert clock.now() == pytest.approx(4.0)

    def test_within_capacity_no_degradation(self):
        transport = InProcessTransport(
            latency=LatencyModel.zero(), server_capacity=1000
        )
        transport.register(_EchoApp(render_seconds=1.0))
        clock = VirtualClock()
        transport.concurrency = 200
        transport.send(HttpRequest.get("/"), "echo.example", "1.1.1.1", clock)
        assert clock.now() == pytest.approx(1.0)


class TestProxyPool:
    def test_size(self):
        assert len(ResidentialProxyPool(25, seed=1)) == 25

    def test_unique_ips(self):
        pool = ResidentialProxyPool(50, seed=1)
        leased = {pool.acquire() for _ in range(50)}
        assert len(leased) == 50

    def test_exhaustion(self):
        pool = ResidentialProxyPool(2, seed=1)
        pool.acquire()
        pool.acquire()
        with pytest.raises(ProxyPoolExhaustedError):
            pool.acquire()

    def test_release_recycles(self):
        pool = ResidentialProxyPool(1, seed=1)
        ip = pool.acquire()
        pool.release(ip)
        assert pool.acquire() == ip

    def test_release_unleased_raises(self):
        pool = ResidentialProxyPool(2, seed=1)
        with pytest.raises(ConfigurationError):
            pool.release("10.0.0.1")

    def test_rotate(self):
        pool = ResidentialProxyPool(3, seed=1)
        ip = pool.acquire()
        fresh = pool.rotate(ip)
        assert fresh != ip
        assert ip not in pool.leased

    def test_deterministic(self):
        a = ResidentialProxyPool(10, seed=7)
        b = ResidentialProxyPool(10, seed=7)
        assert [a.acquire() for _ in range(10)] == [b.acquire() for _ in range(10)]

    def test_plausible_residential_space(self):
        pool = ResidentialProxyPool(20, seed=3)
        for _ in range(20):
            first_octet = int(pool.acquire().split(".")[0])
            assert first_octet in (24, 67, 71, 73, 76, 98, 174)
