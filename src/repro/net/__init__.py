"""Simulated network substrate: HTTP, clocks, transports, cookies, proxies."""

from .clock import Clock, RealClock, VirtualClock
from .cookies import CookieJar, parse_set_cookie
from .faults import (
    FaultAction,
    FaultInjector,
    FaultProfile,
    FaultRates,
    FaultySocket,
    resolve_fault_profile,
)
from .http import (
    HttpRequest,
    HttpResponse,
    decode_form,
    encode_form,
    frame_http_message,
)
from .latency import LatencyModel
from .proxy import ResidentialProxyPool
from .rpc import RpcBusyError, RpcClient, RpcError, RpcRemoteError, RpcServer
from .tcp import TcpBatServer, TcpTransport
from .transport import RENDER_HEADER, BatServerApp, InProcessTransport, Transport

__all__ = [
    "FaultAction",
    "FaultInjector",
    "FaultProfile",
    "FaultRates",
    "FaultySocket",
    "resolve_fault_profile",
    "frame_http_message",
    "Clock",
    "RealClock",
    "VirtualClock",
    "CookieJar",
    "parse_set_cookie",
    "HttpRequest",
    "HttpResponse",
    "decode_form",
    "encode_form",
    "LatencyModel",
    "ResidentialProxyPool",
    "RpcBusyError",
    "RpcClient",
    "RpcError",
    "RpcRemoteError",
    "RpcServer",
    "TcpBatServer",
    "TcpTransport",
    "RENDER_HEADER",
    "BatServerApp",
    "InProcessTransport",
    "Transport",
]
