"""Simulated network substrate: HTTP, clocks, transports, cookies, proxies."""

from .._lazy import lazy_exports

#: Each submodule and the names this package re-exports from it, imported
#: on first access: a process that only reads ``repro.net.clock`` never
#: loads the socket, RPC or TCP modules.
_EXPORTS = {
    ".clock": ("Clock", "RealClock", "VirtualClock"),
    ".cookies": ("CookieJar", "parse_set_cookie"),
    ".faults": (
        "FaultAction",
        "FaultInjector",
        "FaultProfile",
        "FaultRates",
        "FaultySocket",
        "resolve_fault_profile",
    ),
    ".http": (
        "HttpRequest",
        "HttpResponse",
        "decode_form",
        "encode_form",
        "frame_http_message",
    ),
    ".latency": ("LatencyModel",),
    ".proxy": ("ResidentialProxyPool",),
    ".rpc": ("RpcBusyError", "RpcClient", "RpcError", "RpcRemoteError", "RpcServer"),
    ".tcp": ("TcpBatServer", "TcpTransport"),
    ".transport": ("RENDER_HEADER", "BatServerApp", "InProcessTransport", "Transport"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

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
