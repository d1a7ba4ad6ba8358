"""Integration tests for the real-TCP transport path."""

import pytest

from repro.errors import TransportError
from repro.net import (
    HttpRequest,
    HttpResponse,
    RealClock,
    TcpBatServer,
    TcpTransport,
    VirtualClock,
)
from repro.net.conn import shutdown_and_close
from repro.net.transport import RENDER_HEADER


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
        response.add_header("Set-Cookie", "sid=tcp-test")
        return response


@pytest.fixture(scope="module")
def server():
    with TcpBatServer(_PingApp(), time_scale=0.0) as srv:
        yield srv


@pytest.fixture
def transport(server):
    return TcpTransport({server.hostname: server.address})


class TestTcpRoundtrip:
    def test_get(self, transport):
        response = transport.send(
            HttpRequest.get("/"), "ping.example", "73.1.1.1", RealClock()
        )
        assert response.status == 200
        assert "pong" in response.text()

    def test_post_form(self, transport):
        response = transport.send(
            HttpRequest.form_post("/check", {"n": "42"}),
            "ping.example",
            "73.1.1.1",
            RealClock(),
        )
        assert "pong 42" in response.text()

    def test_client_ip_travels_in_header(self, transport):
        response = transport.send(
            HttpRequest.form_post("/check", {"n": "1"}),
            "ping.example",
            "98.7.6.5",
            RealClock(),
        )
        assert "98.7.6.5" in response.text()

    def test_set_cookie_survives(self, transport):
        response = transport.send(
            HttpRequest.get("/"), "ping.example", "73.1.1.1", RealClock()
        )
        assert response.all_headers("Set-Cookie") == ["sid=tcp-test"]

    def test_render_header_stripped(self, transport):
        response = transport.send(
            HttpRequest.get("/"), "ping.example", "73.1.1.1", RealClock()
        )
        assert response.header(RENDER_HEADER) is None

    def test_virtual_clock_nudged(self, transport):
        clock = VirtualClock()
        transport.send(HttpRequest.get("/"), "ping.example", "73.1.1.1", clock)
        assert clock.now() > 0.0

    def test_unknown_host(self, transport):
        with pytest.raises(TransportError):
            transport.send(HttpRequest.get("/"), "nope", "73.1.1.1", RealClock())

    def test_many_sequential_requests(self, transport):
        for i in range(20):
            response = transport.send(
                HttpRequest.form_post("/check", {"n": str(i)}),
                "ping.example",
                "73.1.1.1",
                RealClock(),
            )
            assert f"pong {i}" in response.text()

    def test_connection_refused(self):
        dead = TcpTransport({"dead.example": ("127.0.0.1", 1)}, timeout=0.5)
        with pytest.raises(TransportError):
            dead.send(HttpRequest.get("/"), "dead.example", "73.1.1.1", RealClock())


class TestBqtOverTcp:
    def test_full_workflow_over_tcp(self, tiny_world):
        """The same BQT workflow that runs in-process works over a socket."""
        from repro.core import BroadbandQueryTool

        app = tiny_world.bats["cox"]
        with TcpBatServer(app, time_scale=0.0) as srv:
            transport = TcpTransport({srv.hostname: srv.address})
            tool = BroadbandQueryTool(
                transport,
                client_ip="24.10.20.30",
                clock=RealClock(),
                politeness_seconds=0.0,
            )
            entries = tiny_world.city("new-orleans").book.feed
            hits = 0
            for entry in entries[:10]:
                result = tool.query_address("cox", entry)
                hits += result.is_hit
            assert hits >= 7


# ----------------------------------------------------------------------
# Content-Length framing (the sans-I/O core shared by every endpoint)
# ----------------------------------------------------------------------
class TestHttpFraming:
    """frame_http_message: partial reads, split headers, over-read bytes."""

    MESSAGE = (
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
    )

    def test_complete_message_no_remainder(self):
        from repro.net import frame_http_message

        assert frame_http_message(self.MESSAGE) == (self.MESSAGE, b"")

    def test_incomplete_header_returns_none(self):
        from repro.net import frame_http_message

        assert frame_http_message(b"HTTP/1.1 200 OK\r\nContent-Le") is None

    def test_header_split_mid_terminator_returns_none(self):
        from repro.net import frame_http_message

        assert frame_http_message(self.MESSAGE[:20]) is None
        # Byte-by-byte: no prefix of the message frames early, and the
        # full buffer frames exactly once.
        for cut in range(len(self.MESSAGE)):
            assert frame_http_message(self.MESSAGE[:cut]) is None

    def test_incomplete_body_returns_none(self):
        from repro.net import frame_http_message

        assert frame_http_message(self.MESSAGE[:-2]) is None

    def test_overread_bytes_are_returned_not_discarded(self):
        from repro.net import frame_http_message

        next_start = b"HTTP/1.1 200 OK\r\nContent-"
        framed = frame_http_message(self.MESSAGE + next_start)
        assert framed == (self.MESSAGE, next_start)

    def test_two_pipelined_messages_split_cleanly(self):
        from repro.net import frame_http_message

        second = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno"
        first, rest = frame_http_message(self.MESSAGE + second)
        assert first == self.MESSAGE
        assert frame_http_message(rest) == (second, b"")

    def test_missing_content_length_means_empty_body(self):
        from repro.net import frame_http_message

        message = b"HTTP/1.1 200 OK\r\n\r\n"
        assert frame_http_message(message + b"extra") == (message, b"extra")

    def test_malformed_content_length_raises(self):
        from repro.net import frame_http_message

        with pytest.raises(TransportError, match="Content-Length"):
            frame_http_message(
                b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n"
            )

    def test_negative_content_length_raises(self):
        from repro.net import frame_http_message

        with pytest.raises(TransportError, match="Content-Length"):
            frame_http_message(
                b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\n"
            )

    def test_oversized_header_block_raises(self):
        from repro.net import frame_http_message

        with pytest.raises(TransportError, match="64 KiB"):
            frame_http_message(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70000)


class _SocketStub:
    """Feeds recv() from a list of chunks (b"" = EOF thereafter)."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv(self, _size):
        if not self._chunks:
            return b""
        return self._chunks.pop(0)


class TestReadHttpMessage:
    """read_http_message over fragmented sockets."""

    def test_split_header_and_body_across_many_recvs(self):
        from repro.net.conn import read_http_message

        payload = TestHttpFraming.MESSAGE
        sock = _SocketStub([payload[i : i + 3] for i in range(0, len(payload), 3)])
        raw, rest = read_http_message(sock)
        assert raw == payload
        assert rest == b""

    def test_overread_returned_to_caller(self):
        from repro.net.conn import read_http_message

        second = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
        sock = _SocketStub([TestHttpFraming.MESSAGE + second])
        raw, rest = read_http_message(sock)
        assert raw == TestHttpFraming.MESSAGE
        # The over-read bytes buffer into the next call — nothing lost.
        raw2, rest2 = read_http_message(_SocketStub([]), rest)
        assert raw2 == second
        assert rest2 == b""

    def test_clean_eof_returns_empty(self):
        from repro.net.conn import read_http_message

        assert read_http_message(_SocketStub([])) == (b"", b"")


# ----------------------------------------------------------------------
# Keep-alive connection reuse on the sync transport
# ----------------------------------------------------------------------
class TestKeepAliveTransport:
    def test_identical_responses_with_and_without_keepalive(self, server):
        """Regression: pooling must never change what the caller sees."""
        fresh = TcpTransport(
            {server.hostname: server.address}, fault_profile="off"
        )
        pooled = TcpTransport(
            {server.hostname: server.address}, keep_alive=True,
            fault_profile="off",
        )
        try:
            for i in range(12):
                request_a = HttpRequest.form_post("/check", {"n": str(i)})
                request_b = HttpRequest.form_post("/check", {"n": str(i)})
                a = fresh.send(request_a, server.hostname, "73.9.9.9", RealClock())
                b = pooled.send(request_b, server.hostname, "73.9.9.9", RealClock())
                assert a.status == b.status
                assert a.body == b.body
        finally:
            pooled.close()

    def test_connection_actually_reused(self, server):
        pooled = TcpTransport(
            {server.hostname: server.address}, keep_alive=True,
            fault_profile="off",
        )
        try:
            for i in range(5):
                pooled.send(
                    HttpRequest.form_post("/check", {"n": str(i)}),
                    server.hostname,
                    "73.9.9.9",
                    RealClock(),
                )
            idle = pooled._pools[server.hostname]._idle
            assert len(idle) == 1
            sock = idle[0].sock
            pooled.send(
                HttpRequest.get("/"), server.hostname, "73.9.9.9", RealClock()
            )
            assert pooled._pools[server.hostname]._idle[0].sock is sock
        finally:
            pooled.close()

    def test_stale_pooled_socket_retries_fresh(self, server):
        pooled = TcpTransport(
            {server.hostname: server.address}, keep_alive=True,
            fault_profile="off",
        )
        try:
            pooled.send(
                HttpRequest.get("/"), server.hostname, "73.9.9.9", RealClock()
            )
            # Kill the parked socket behind the pool's back.
            pooled._pools[server.hostname]._idle[0].sock.close()
            response = pooled.send(
                HttpRequest.get("/"), server.hostname, "73.9.9.9", RealClock()
            )
            assert response.status == 200
        finally:
            pooled.close()

    def test_server_killed_and_restarted_between_requests(self):
        """Kill-the-server-between-requests regression: a pooled
        keep-alive socket whose server died — and came back on the same
        address — must be retried on a fresh connection, transparently.

        This also pins the server-side half of the contract: stop() must
        actually release the port (shutdown + close of the listener *and*
        of parked keep-alive connections), or the restart here would fail
        with EADDRINUSE while clients hold their pooled sockets open.
        """
        first = TcpBatServer(_PingApp(), time_scale=0.0)
        first.start()
        address = first.address
        pooled = TcpTransport(
            {"ping.example": address}, keep_alive=True, fault_profile="off"
        )
        try:
            response = pooled.send(
                HttpRequest.form_post("/check", {"n": "1"}),
                "ping.example", "73.9.9.9", RealClock(),
            )
            assert "pong 1" in response.text()
            assert len(pooled._pools["ping.example"]._idle) == 1

            first.stop()
            second = TcpBatServer(
                _PingApp(), host=address[0], port=address[1], time_scale=0.0
            )
            second.start()
            try:
                # The pooled socket is stale; the transport must dial the
                # restarted server and succeed without surfacing an error.
                response = pooled.send(
                    HttpRequest.form_post("/check", {"n": "2"}),
                    "ping.example", "73.9.9.9", RealClock(),
                )
                assert "pong 2" in response.text()
            finally:
                second.stop()
        finally:
            pooled.close()

    def test_server_killed_for_good_raises_transport_error(self):
        """With no server coming back, the retry must fail loudly (a
        TransportError), never hang or return a stale response."""
        server = TcpBatServer(_PingApp(), time_scale=0.0)
        server.start()
        pooled = TcpTransport(
            {"ping.example": server.address}, keep_alive=True, timeout=1.0,
            fault_profile="off",
        )
        try:
            pooled.send(
                HttpRequest.get("/"), "ping.example", "73.9.9.9", RealClock()
            )
            server.stop()
            with pytest.raises(TransportError):
                pooled.send(
                    HttpRequest.get("/"), "ping.example", "73.9.9.9",
                    RealClock(),
                )
        finally:
            pooled.close()

    def test_bqt_workflow_identical_over_keepalive(self, tiny_world):
        """Full BQT sessions over a pooled connection match one-shot runs.

        Each run gets its own freshly built BAT application: the app's
        safeguard state (per-IP rate-limit windows) is cumulative, so
        sharing one server across runs would block the second run no
        matter how it connected.
        """
        from repro.addresses.database import AddressIndex
        from repro.bat.app import BatApplication
        from repro.bat.profiles import profile_for
        from repro.core import BroadbandQueryTool
        from repro.world import offer_resolver

        city_world = tiny_world.city("new-orleans")
        entries = city_world.book.feed[:8]

        def fresh_app():
            return BatApplication(
                profile=profile_for("cox"),
                index=AddressIndex(tuple(city_world.book.canonical)),
                offers=offer_resolver({"new-orleans": city_world}, "cox"),
                seed=tiny_world.seed,
            )

        outcomes = {}
        for keep_alive in (False, True):
            with TcpBatServer(fresh_app(), time_scale=0.0) as srv:
                transport = TcpTransport(
                    {srv.hostname: srv.address}, keep_alive=keep_alive
                )
                tool = BroadbandQueryTool(
                    transport,
                    client_ip="24.10.20.31",
                    clock=RealClock(),
                    politeness_seconds=0.0,
                )
                outcomes[keep_alive] = [
                    (r.status, r.plans)
                    for r in (tool.query_address("cox", e) for e in entries)
                ]
                transport.close()
        assert outcomes[False] == outcomes[True]
        assert any(status == "plans" for status, _ in outcomes[True])


class TestTruncatedResponses:
    """A connection lost mid-response must raise, never parse or resend."""

    @staticmethod
    def _one_shot_server(payload: bytes):
        import socket as socketlib
        import threading

        listener = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                if payload:
                    conn.sendall(payload)
            listener.close()

        threading.Thread(target=serve, daemon=True).start()
        return listener.getsockname()

    def test_truncated_body_raises_not_parses(self):
        address = self._one_shot_server(
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
        )
        transport = TcpTransport({"trunc.example": address}, fault_profile="off")
        with pytest.raises(TransportError, match="truncated"):
            transport.send(
                HttpRequest.get("/"), "trunc.example", "73.1.1.1", RealClock()
            )

    def test_split_header_then_eof_raises(self):
        address = self._one_shot_server(b"HTTP/1.1 200 OK\r\nContent-Le")
        transport = TcpTransport({"trunc.example": address}, fault_profile="off")
        with pytest.raises(TransportError, match="truncated"):
            transport.send(
                HttpRequest.get("/"), "trunc.example", "73.1.1.1", RealClock()
            )

    def test_close_without_response_raises_empty(self):
        address = self._one_shot_server(b"")
        transport = TcpTransport({"trunc.example": address}, fault_profile="off")
        with pytest.raises(TransportError, match="empty response"):
            transport.send(
                HttpRequest.get("/"), "trunc.example", "73.1.1.1", RealClock()
            )


class _SilentServer:
    """Reads each request, then closes without replying; counts requests."""

    def __init__(self):
        import socket as socketlib
        import threading

        self.requests = 0
        self._listener = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                if conn.recv(65536):
                    self.requests += 1

    def close(self):
        # close() alone does not wake a thread blocked in accept().
        shutdown_and_close(self._listener)
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


class TestResendRule:
    """Every sync client shares one resend rule: a fresh connection that
    closes without a reply may have run the request, so it is never
    resent (a forced serve query would otherwise curate twice)."""

    @pytest.mark.parametrize("client", ["tcp", "rpc", "serve"])
    def test_unanswered_request_on_fresh_connection_sent_once(self, client):
        from repro.net import RpcClient
        from repro.serve import ServeClient

        server = _SilentServer()
        try:
            with pytest.raises(TransportError):
                if client == "tcp":
                    TcpTransport(
                        {"silent.example": server.address},
                        keep_alive=True,
                        fault_profile="off",
                    ).send(
                        HttpRequest.get("/"), "silent.example", "73.1.1.1",
                        RealClock(),
                    )
                elif client == "rpc":
                    RpcClient(
                        server.address, timeout=5.0, fault_profile="off"
                    ).call("ping")
                else:
                    ServeClient(*server.address, timeout=5.0).get("/healthz")
        finally:
            server.close()
        assert server.requests == 1
