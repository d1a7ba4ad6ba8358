"""Minimal HTTP/1.1 message model.

All traffic between BQT and the simulated BAT servers is expressed as
:class:`HttpRequest` / :class:`HttpResponse` values.  The same messages flow
through the in-process transport (fast path) and are serialized onto real
TCP sockets by :mod:`repro.net.tcp` (integration path), which keeps the two
paths behaviorally identical.

Only the small subset of HTTP the BATs need is implemented: GET/POST,
headers, cookies, URL-encoded form bodies, and Content-Length framing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import parse_qsl, quote_plus

from ..errors import TransportError

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "encode_form",
    "decode_form",
    "frame_http_message",
    "message_content_length",
    "STATUS_REASONS",
]

STATUS_REASONS: dict[int, str] = {
    200: "OK",
    302: "Found",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_CRLF = b"\r\n"
_MAX_HEADER_BYTES = 64 * 1024


def encode_form(fields: dict[str, str]) -> bytes:
    """URL-encode a form body.

    >>> encode_form({"address": "12 Oak St", "zip": "70112"})
    b'address=12+Oak+St&zip=70112'
    """
    return "&".join(
        f"{quote_plus(str(k))}={quote_plus(str(v))}" for k, v in fields.items()
    ).encode("ascii")


def decode_form(body: bytes) -> dict[str, str]:
    """Decode a URL-encoded form body into a dict (last value wins).

    ``parse_qsl`` already percent-decodes keys and values; decoding keys
    a second time here would turn a literal ``%25xx`` in a key into the
    ``xx`` character and break the ``encode_form`` round trip.
    """
    pairs = parse_qsl(body.decode("utf-8", errors="replace"), keep_blank_values=True)
    return dict(pairs)


def _canonical_header(name: str) -> str:
    return "-".join(part.capitalize() for part in name.split("-"))


# ----------------------------------------------------------------------
# Sans-I/O Content-Length framing
# ----------------------------------------------------------------------
# One framing implementation serves every endpoint — the server shell and
# the client pool in repro.net.conn — so keep-alive and pipelined
# connections split messages identically everywhere.


def message_content_length(head: bytes) -> int:
    """Extract the Content-Length of a message given its header block.

    ``head`` is everything before the blank line (request/status line plus
    header lines, CRLF-separated).  Missing Content-Length means an empty
    body (the only bodies our HTTP subset carries are explicitly framed).
    """
    content_length = 0
    for line in head.split(_CRLF)[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise TransportError(f"bad Content-Length: {value!r}") from exc
            if content_length < 0:
                raise TransportError(f"bad Content-Length: {value!r}")
    return content_length


def frame_http_message(buffer: bytes) -> tuple[bytes, bytes] | None:
    """Split one complete framed message off the front of ``buffer``.

    Returns ``(message, remainder)`` when the buffer holds at least one
    complete header block plus Content-Length body, or None when more
    bytes are needed.  The remainder — bytes past the body that belong to
    the *next* message on a keep-alive/pipelined connection — is never
    discarded; callers must carry it into the next framing call.
    """
    head, separator, rest = buffer.partition(_CRLF * 2)
    if not separator:
        if len(buffer) > _MAX_HEADER_BYTES:
            raise TransportError("header block exceeds 64 KiB")
        return None
    content_length = message_content_length(head)
    if len(rest) < content_length:
        return None
    body, remainder = rest[:content_length], rest[content_length:]
    return head + _CRLF * 2 + body, remainder


@dataclass
class HttpRequest:
    """One HTTP request.

    ``headers`` values are lists to support repeated headers (Cookie is
    folded, Set-Cookie never appears on requests).
    """

    method: str
    path: str
    headers: dict[str, list[str]] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        self.headers = {
            _canonical_header(name): list(values)
            for name, values in self.headers.items()
        }

    def header(self, name: str) -> str | None:
        values = self.headers.get(_canonical_header(name))
        return values[0] if values else None

    def set_header(self, name: str, value: str) -> None:
        self.headers[_canonical_header(name)] = [value]

    def form(self) -> dict[str, str]:
        """The request body decoded as a URL-encoded form."""
        return decode_form(self.body)

    @classmethod
    def form_post(cls, path: str, fields: dict[str, str]) -> "HttpRequest":
        body = encode_form(fields)
        request = cls("POST", path, body=body)
        request.set_header("Content-Type", "application/x-www-form-urlencoded")
        return request

    @classmethod
    def get(cls, path: str) -> "HttpRequest":
        return cls("GET", path)

    def to_bytes(self, host: str) -> bytes:
        """Serialize for the TCP transport."""
        lines = [f"{self.method} {self.path} HTTP/1.1".encode("ascii")]
        headers = dict(self.headers)
        headers.setdefault("Host", [host])
        headers["Content-Length"] = [str(len(self.body))]
        headers.setdefault("Connection", ["close"])
        for name, values in headers.items():
            for value in values:
                lines.append(f"{name}: {value}".encode("latin-1"))
        return _CRLF.join(lines) + _CRLF * 2 + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "HttpRequest":
        """Parse a serialized request (TCP server side).

        The socket readers hand back partial bytes on a mid-message EOF
        precisely so the parser can reject them here: a missing header
        terminator (torn header) or a body shorter than Content-Length
        (torn body) raises :class:`TransportError` instead of being
        silently handled as a complete request.
        """
        head, separator, body = data.partition(_CRLF * 2)
        if not separator:
            raise TransportError(
                "truncated HTTP request (no header terminator)"
            )
        declared = message_content_length(head)
        if len(body) != declared:
            raise TransportError(
                f"truncated HTTP request body: Content-Length {declared}, "
                f"got {len(body)} bytes"
            )
        lines = head.split(_CRLF)
        if not lines or not lines[0]:
            raise TransportError("empty HTTP request")
        try:
            method, path, _version = lines[0].decode("ascii").split(" ", 2)
        except ValueError as exc:
            raise TransportError(f"malformed request line: {lines[0]!r}") from exc
        headers: dict[str, list[str]] = {}
        for raw in lines[1:]:
            if not raw:
                continue
            name, _, value = raw.decode("latin-1").partition(":")
            headers.setdefault(_canonical_header(name.strip()), []).append(
                value.strip()
            )
        return cls(method=method, path=path, headers=headers, body=body)


@dataclass
class HttpResponse:
    """One HTTP response."""

    status: int
    headers: dict[str, list[str]] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self) -> None:
        self.headers = {
            _canonical_header(name): list(values)
            for name, values in self.headers.items()
        }

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def header(self, name: str) -> str | None:
        values = self.headers.get(_canonical_header(name))
        return values[0] if values else None

    def all_headers(self, name: str) -> list[str]:
        return list(self.headers.get(_canonical_header(name), []))

    def add_header(self, name: str, value: str) -> None:
        self.headers.setdefault(_canonical_header(name), []).append(value)

    def set_header(self, name: str, value: str) -> None:
        self.headers[_canonical_header(name)] = [value]

    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "HttpResponse":
        response = cls(status=status, body=markup.encode("utf-8"))
        response.set_header("Content-Type", "text/html; charset=utf-8")
        return response

    def to_bytes(self) -> bytes:
        reason = STATUS_REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}".encode("ascii")]
        headers = dict(self.headers)
        headers["Content-Length"] = [str(len(self.body))]
        headers.setdefault("Connection", ["close"])
        for name, values in headers.items():
            for value in values:
                lines.append(f"{name}: {value}".encode("latin-1"))
        return _CRLF.join(lines) + _CRLF * 2 + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "HttpResponse":
        head, separator, body = data.partition(_CRLF * 2)
        if not separator:
            raise TransportError(
                "truncated HTTP response (no header terminator)"
            )
        declared = message_content_length(head)
        if len(body) != declared:
            raise TransportError(
                f"truncated HTTP response body: Content-Length {declared}, "
                f"got {len(body)} bytes"
            )
        lines = head.split(_CRLF)
        if not lines or not lines[0]:
            raise TransportError("empty HTTP response")
        try:
            status = int(lines[0].decode("ascii").split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise TransportError(f"malformed status line: {lines[0]!r}") from exc
        headers: dict[str, list[str]] = {}
        for raw in lines[1:]:
            if not raw:
                continue
            name, _, value = raw.decode("latin-1").partition(":")
            headers.setdefault(_canonical_header(name.strip()), []).append(
                value.strip()
            )
        return cls(status=status, headers=headers, body=body)
