"""Deterministic fault injection: profile spec parsing, seeded injector
replay, the FaultySocket wrapper, frame-fuzz against every endpoint, and
chaos-vs-clean golden equivalence for the BQT workflows."""

from __future__ import annotations

import socket
import time

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    FaultInjector,
    FaultProfile,
    FaultRates,
    FaultySocket,
    HttpRequest,
    HttpResponse,
    RealClock,
    RpcClient,
    RpcServer,
    TcpBatServer,
    TcpTransport,
    frame_http_message,
    resolve_fault_profile,
)
from repro.net.transport import RENDER_HEADER


# ----------------------------------------------------------------------
# Spec parsing and resolution
# ----------------------------------------------------------------------
class TestProfileSpec:
    def test_bare_keys_apply_to_both_directions(self):
        profile = FaultProfile.from_spec("seed=7,drop=0.1,duplicate=0.05")
        assert profile.seed == 7
        assert profile.client.drop == 0.1
        assert profile.server.drop == 0.1
        assert profile.client.duplicate == 0.05
        assert profile.server.duplicate == 0.05

    def test_direction_prefixes_scope_rates(self):
        profile = FaultProfile.from_spec(
            "seed=1305,client.drop=0.05,server.truncate=0.02"
        )
        assert profile.client.drop == 0.05
        assert profile.server.drop == 0.0
        assert profile.server.truncate == 0.02
        assert profile.client.truncate == 0.0

    def test_dup_alias_and_delay_seconds(self):
        profile = FaultProfile.from_spec(
            "dup=0.2,delay=0.1,delay-seconds=0.01"
        )
        assert profile.client.duplicate == 0.2
        assert profile.client.delay == 0.1
        assert profile.delay_seconds == 0.01

    @pytest.mark.parametrize("spec", ["", "  ", "off", "OFF", "none", "0"])
    def test_off_specs_resolve_to_none(self, spec):
        assert FaultProfile.from_spec(spec) is None

    @pytest.mark.parametrize(
        "spec",
        [
            "drop",                # not key=value
            "banana=0.1",          # unknown fault key
            "upstream.drop=0.1",   # unknown direction
            "drop=high",           # non-numeric rate
            "drop=1.5",            # out of [0, 1]
            "drop=0.7,reset=0.7",  # rates sum past 1
            "reorder=0.1",         # no such fault kind
            "seed=pi",             # non-integer seed
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            FaultProfile.from_spec(spec)

    def test_resolve_falls_back_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "seed=9,client.drop=0.25")
        profile = resolve_fault_profile(None)
        assert profile is not None
        assert profile.seed == 9
        assert profile.client.drop == 0.25

    def test_off_string_pins_injection_off_despite_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "client.drop=0.5")
        assert resolve_fault_profile("off") is None

    def test_inactive_profile_resolves_to_none(self):
        assert resolve_fault_profile(FaultProfile(seed=3)) is None
        assert resolve_fault_profile("seed=3") is None

    def test_profile_object_passes_through(self):
        profile = FaultProfile(seed=1, client=FaultRates(drop=0.1))
        assert resolve_fault_profile(profile) is profile

    def test_bad_knob_type_raises(self):
        with pytest.raises(ConfigurationError, match="fault_profile"):
            resolve_fault_profile(0.25)  # type: ignore[arg-type]

    def test_scaled_multiplies_and_clamps(self):
        profile = FaultProfile.from_spec("drop=0.4,reset=0.1")
        half = profile.scaled(0.5)
        assert half.client.drop == pytest.approx(0.2)
        assert half.server.reset == pytest.approx(0.05)
        maxed = FaultProfile.from_spec("drop=0.9").scaled(5.0)
        assert maxed.client.drop == 1.0

    def test_rates_validate_bounds(self):
        with pytest.raises(ConfigurationError, match="not in"):
            FaultRates(drop=-0.1)
        with pytest.raises(ConfigurationError, match="sum"):
            FaultRates(drop=0.6, truncate=0.6)


# ----------------------------------------------------------------------
# Seeded determinism
# ----------------------------------------------------------------------
class TestInjectorDeterminism:
    PROFILE = FaultProfile(
        seed=42,
        client=FaultRates(drop=0.3, duplicate=0.1, truncate=0.1, delay=0.1),
    )

    def _verdicts(self, injector: FaultInjector, n: int = 64):
        return [
            (a.kind, a.cut, a.delay_s)
            for a in (injector.next_action(1000) for _ in range(n))
        ]

    def test_same_labels_replay_identically(self):
        first = self._verdicts(self.PROFILE.injector("client", "host", 1))
        second = self._verdicts(self.PROFILE.injector("client", "host", 1))
        assert first == second
        assert any(kind != "send" for kind, _, _ in first)

    def test_distinct_labels_draw_distinct_sequences(self):
        base = self._verdicts(self.PROFILE.injector("client", "host", 1))
        other_conn = self._verdicts(self.PROFILE.injector("client", "host", 2))
        other_host = self._verdicts(self.PROFILE.injector("client", "h2", 1))
        assert base != other_conn
        assert base != other_host

    def test_distinct_seeds_draw_distinct_sequences(self):
        from dataclasses import replace

        reseeded = replace(self.PROFILE, seed=43)
        assert self._verdicts(
            self.PROFILE.injector("client", "host", 1)
        ) != self._verdicts(reseeded.injector("client", "host", 1))

    def test_truncate_cut_is_a_strict_prefix(self):
        injector = FaultProfile(
            seed=5, client=FaultRates(truncate=1.0)
        ).injector("client", "t")
        for nbytes in (1, 2, 10, 5000):
            action = injector.next_action(nbytes)
            assert action.kind == "truncate"
            assert 0 <= action.cut < nbytes

    def test_injector_counts_frames_and_faults(self):
        injector = FaultProfile(
            seed=6, client=FaultRates(drop=0.5)
        ).injector("client", "c")
        for _ in range(100):
            injector.next_action(100)
        assert injector.frames == 100
        assert 0 < injector.injected.get("drop", 0) < 100


# ----------------------------------------------------------------------
# The FaultySocket wrapper (raw-endpoint fault semantics)
# ----------------------------------------------------------------------
def _forced(kind: str, seed: int = 1) -> FaultInjector:
    return FaultProfile(
        seed=seed, client=FaultRates(**{kind: 1.0})
    ).injector("client", kind)


class TestFaultySocket:
    def test_drop_tears_the_connection_down(self):
        left, right = socket.socketpair()
        wrapped = FaultySocket(left, _forced("drop"))
        wrapped.sendall(b"never arrives")
        right.settimeout(2.0)
        assert right.recv(1024) == b""  # peer sees EOF, not a hang

    def test_truncate_delivers_a_strict_prefix_then_eof(self):
        left, right = socket.socketpair()
        wrapped = FaultySocket(left, _forced("truncate"))
        payload = b"0123456789" * 50
        wrapped.sendall(payload)
        right.settimeout(2.0)
        received = b""
        while True:
            chunk = right.recv(4096)
            if not chunk:
                break
            received += chunk
        assert len(received) < len(payload)
        assert payload.startswith(received)

    def test_duplicate_delivers_twice(self):
        left, right = socket.socketpair()
        wrapped = FaultySocket(left, _forced("duplicate"))
        wrapped.sendall(b"twice")
        right.settimeout(2.0)
        got = b""
        while len(got) < 10:
            got += right.recv(1024)
        assert got == b"twicetwice"

    def test_delay_still_delivers_intact(self):
        left, right = socket.socketpair()
        wrapped = FaultySocket(left, _forced("delay"))
        wrapped.sendall(b"intact")
        right.settimeout(2.0)
        assert right.recv(1024) == b"intact"

    def test_context_manager_and_passthrough(self):
        left, right = socket.socketpair()
        with FaultySocket(left, _forced("delay")) as wrapped:
            wrapped.settimeout(1.0)
            right.sendall(b"reads pass through")
            assert wrapped.recv(1024) == b"reads pass through"
            assert wrapped.fileno() == left.fileno()  # __getattr__ delegation
        with pytest.raises(OSError):
            left.getpeername()  # __exit__ closed the underlying socket


# ----------------------------------------------------------------------
# Frame fuzz: split / pipelined / duplicated / truncated messages against
# the shared framer, the threaded server shell and the RPC server
# ----------------------------------------------------------------------
REQUEST = (
    b"POST /check HTTP/1.1\r\nHost: ping.example\r\n"
    b"Content-Length: 5\r\nConnection: close\r\n\r\nn=987"
)


class _PingApp:
    hostname = "ping.example"

    def handle(self, request, client_ip, now):
        if request.method == "POST":
            form = request.form()
            body = f"<html>pong {form.get('n', '?')}</html>"
        else:
            body = "<html>pong</html>"
        response = HttpResponse.html(body)
        response.set_header(RENDER_HEADER, "5.0")
        return response


def _drain(sock: socket.socket) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


class TestFramerFuzz:
    """The sans-I/O framer under every split of a pipelined stream."""

    def test_every_split_of_two_pipelined_messages_reassembles(self):
        first = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
        second = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno"
        stream = first + second
        for cut in range(len(stream) + 1):
            buffer = stream[:cut]
            messages = []
            while True:
                framed = frame_http_message(buffer)
                if framed is None:
                    break
                message, buffer = framed
                messages.append(message)
            buffer += stream[cut:]
            while True:
                framed = frame_http_message(buffer)
                if framed is None:
                    break
                message, buffer = framed
                messages.append(message)
            assert messages == [first, second], cut
            assert buffer == b""

    def test_duplicated_message_frames_as_two_messages(self):
        message = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
        first, rest = frame_http_message(message + message)
        assert first == message
        assert frame_http_message(rest) == (message, b"")


class TestSyncServerFuzz:
    @pytest.fixture(scope="class")
    def server(self):
        with TcpBatServer(
            _PingApp(), time_scale=0.0, fault_profile="off"
        ) as srv:
            yield srv

    def test_byte_dribbled_request_still_served(self, server):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            for i in range(len(REQUEST)):
                sock.sendall(REQUEST[i : i + 1])
            raw = _drain(sock)
        response = HttpResponse.from_bytes(raw)
        assert response.status == 200
        assert "pong 987" in response.text()

    def test_pipelined_keepalive_requests_in_one_write(self, server):
        keep = REQUEST.replace(b"Connection: close", b"Connection: keep-alive")
        pipelined = keep + keep.replace(b"n=987", b"n=988")
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(pipelined)
            buffer = b""
            messages = []
            while len(messages) < 2:
                framed = frame_http_message(buffer)
                if framed is not None:
                    message, buffer = framed
                    messages.append(message)
                    continue
                chunk = sock.recv(65536)
                assert chunk, "server closed before answering the pipeline"
                buffer += chunk
        bodies = [HttpResponse.from_bytes(m).text() for m in messages]
        assert "pong 987" in bodies[0]
        assert "pong 988" in bodies[1]

    def test_truncated_requests_never_get_a_200(self, server):
        """Every strict prefix of a request either gets a 400 (the parser
        rejected the torn message) or a clean close — never a success."""
        for cut in range(1, len(REQUEST), 7):
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(REQUEST[:cut])
                sock.shutdown(socket.SHUT_WR)
                raw = _drain(sock)
            if raw:
                assert HttpResponse.from_bytes(raw).status == 400, cut


class TestRpcServerFuzz:
    @pytest.fixture(scope="class")
    def server(self):
        with RpcServer(
            {"echo": lambda payload: {"echo": payload}}, fault_profile="off"
        ) as srv:
            yield srv

    @staticmethod
    def _wire() -> bytes:
        request = HttpRequest("POST", "/rpc/echo", body=b'{"n":1}')
        request.set_header("Connection", "close")
        return request.to_bytes("fuzz")

    def test_split_request_still_answered(self, server):
        wire = self._wire()
        half = len(wire) // 2
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(wire[:half])
            time.sleep(0.01)
            sock.sendall(wire[half:])
            # The server keeps raw connections alive; half-close so it
            # answers, sees EOF, and hangs up — _drain then terminates.
            sock.shutdown(socket.SHUT_WR)
            raw = _drain(sock)
        response = HttpResponse.from_bytes(raw)
        assert response.status == 200
        assert b'"n":1' in response.body

    def test_truncated_request_drops_the_connection(self, server):
        """The RPC raw path treats an unframeable stream as garbage: no
        reply, no hang — the connection just closes."""
        wire = self._wire()
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(wire[: len(wire) - 3])
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5.0)
            assert _drain(sock) == b""

    def test_duplicated_response_is_overread_not_corruption(self, server):
        """A server-side duplicate fault turns the response into over-read
        bytes; the client must parse the first copy cleanly."""
        with RpcServer(
            {"echo": lambda payload: {"echo": payload}},
            fault_profile="seed=2,server.duplicate=1.0",
        ) as chaotic:
            with RpcClient(chaotic.address, fault_profile="off") as client:
                assert client.call("echo", {"n": 5}) == {"echo": {"n": 5}}


# ----------------------------------------------------------------------
# Chaos-vs-clean golden equivalence (the BQT workflow over TCP)
# ----------------------------------------------------------------------
# Loss-shaped client faults only: drop/truncate/reset all fail provably
# before the BAT handled the request, so the transports' retry budget
# recovers without double-submitting (a duplicate fault *would* double-
# mutate BAT session state, which is exactly why raw endpoints never
# inject client duplicates in the golden profiles).
CHAOS_CLIENT = "seed=1305,client.drop=0.04,client.truncate=0.02,client.reset=0.02"


def _fresh_cox_app(tiny_world):
    from repro.addresses.database import AddressIndex
    from repro.bat.app import BatApplication
    from repro.bat.profiles import profile_for
    from repro.world import offer_resolver

    city_world = tiny_world.city("new-orleans")
    return BatApplication(
        profile=profile_for("cox"),
        index=AddressIndex(tuple(city_world.book.canonical)),
        offers=offer_resolver({"new-orleans": city_world}, "cox"),
        seed=tiny_world.seed,
    )


class TestChaosGolden:
    def _sync_outcomes(self, tiny_world, fault_profile):
        from repro.core import BroadbandQueryTool

        entries = tiny_world.city("new-orleans").book.feed[:8]
        with TcpBatServer(
            _fresh_cox_app(tiny_world), time_scale=0.0, fault_profile="off"
        ) as srv:
            tool = BroadbandQueryTool(
                TcpTransport(
                    {srv.hostname: srv.address}, fault_profile=fault_profile
                ),
                client_ip="24.10.20.30",
                clock=RealClock(),
                politeness_seconds=0.0,
            )
            return [
                (r.status, r.plans, r.resolved_line)
                for r in (tool.query_address("cox", e) for e in entries)
            ]

    def test_sync_bqt_identical_under_client_loss(self, tiny_world):
        clean = self._sync_outcomes(tiny_world, "off")
        chaos = self._sync_outcomes(tiny_world, CHAOS_CLIENT)
        assert chaos == clean
        assert any(status == "plans" for status, *_ in clean)

    def test_stateless_server_loss_recovered_at_least_once(self):
        """Server-direction drops on a *stateless* app: the client cannot
        distinguish a lost response from an unhandled request, so the
        retry budget re-submits — at-least-once delivery, every response
        eventually correct."""
        with TcpBatServer(
            _PingApp(),
            time_scale=0.0,
            fault_profile="seed=77,server.drop=0.3",
        ) as srv:
            transport = TcpTransport(
                {srv.hostname: srv.address},
                fault_profile="seed=77,server.drop=0.3",
            )
            for i in range(12):
                response = transport.send(
                    HttpRequest.form_post("/check", {"n": str(i)}),
                    srv.hostname,
                    "73.2.2.2",
                    RealClock(),
                )
                assert f"pong {i}" in response.text()

    def test_chaos_run_replays_identically(self, tiny_world):
        """The chaos run itself is deterministic: same seed, same fault
        sequence, same outcomes — the property every chaos regression
        test in this file leans on."""
        first = self._sync_outcomes(tiny_world, CHAOS_CLIENT)
        second = self._sync_outcomes(tiny_world, CHAOS_CLIENT)
        assert first == second
