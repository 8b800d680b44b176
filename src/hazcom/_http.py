"""Minimal JSON-over-HTTP client shared by the remote backend and sinks.

Each call is one HTTP/1.0 exchange with ``Connection: close`` on a plain
socket.  One deadline bounds all of it, and a reply over MAX_REPLY_BYTES is
refused.  Only ``http://`` URLs are served; proxies from the environment are
not used, and redirects are not followed (a 3xx is a transport failure).
"""

from __future__ import annotations

import json
import re
import socket
import time
from urllib.parse import urlsplit

from .core import ConfigurationError

MAX_REPLY_BYTES = 1 << 20
_STATUS_LINE = re.compile(rb"HTTP/\d+(?:\.\d+)? (\d{3})(?: [^\r\n]*)?(?:\r\n|\Z)")
_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length[ \t]*:[ \t]*(\d+)[ \t]*\r\n", re.I)
_TRANSFER_ENCODING = re.compile(rb"\r\ntransfer-encoding[ \t]*:", re.I)
_UNSAFE_URL_CHAR = re.compile(r"[^\x21-\x7e]")  # space, control or non-ASCII


def parse_url(url: str) -> tuple[tuple[str, int], str, str]:
    """Return the socket address, ``Host`` header and request path of ``url``,
    or raise ConfigurationError unless it is an ``http://`` URL with a host."""
    try:
        parts = urlsplit(url)
        port = parts.port  # ValueError on a broken IPv6 host or a port not in 0-65535
    except ValueError as exc:
        raise ConfigurationError(f"bad endpoint {url!r}: {exc}") from exc
    if parts.scheme != "http" or not parts.hostname or _UNSAFE_URL_CHAR.search(url):
        raise ConfigurationError(f"endpoint must be an http://host[:port]/path URL, got {url!r}")
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    host = parts.netloc.rpartition("@")[2]  # host and port, never userinfo
    return (parts.hostname, 80 if port is None else port), host, path


def post_json(url: str, document: dict, timeout_s: float) -> dict:
    """POST a JSON document and return the parsed JSON response.

    ``timeout_s`` bounds the whole exchange (a blocking name lookup aside).
    Raises TimeoutError when it passes, ConnectionError on a transport
    failure (an unusable URL, an unreachable host, a status outside 2xx, a
    reply that breaks HTTP framing), and ValueError on an oversized reply or
    a body that is not a JSON object.
    """
    deadline = time.monotonic() + timeout_s
    try:
        address, host, path = parse_url(url)
    except ConfigurationError as exc:
        raise ConnectionError(f"cannot reach {url}: {exc}") from exc
    body = json.dumps(document).encode("utf-8")
    request = (
        f"POST {path} HTTP/1.0\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body
    try:
        with socket.create_connection(address, _remaining(deadline)) as sock:
            sock.settimeout(_remaining(deadline))
            sock.sendall(request)
            reply, end = _receive(sock, deadline)
    except TimeoutError as exc:
        raise TimeoutError(f"no response from {url} within {timeout_s}s") from exc
    except OSError as exc:
        raise ConnectionError(f"cannot reach {url}: {exc}") from exc
    head, separator, _ = reply.partition(b"\r\n\r\n")
    status = _STATUS_LINE.match(head)
    if not separator or status is None:
        raise ConnectionError(f"bad reply from {url}: no status line and headers")
    if _TRANSFER_ENCODING.search(head):
        raise ConnectionError(f"bad reply from {url}: Transfer-Encoding in a reply to HTTP/1.0")
    if end is not None and len(reply) < end:
        raise ConnectionError(f"bad reply from {url}: body {end - len(reply)} bytes short")
    if not status[1].startswith(b"2"):
        raise ConnectionError(f"HTTP {int(status[1])} from {url}")
    try:
        document = json.loads(reply[len(head) + 4:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"non-JSON response from {url}: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError(f"expected a JSON object from {url}")
    return document


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


def _receive(sock: socket.socket, deadline: float) -> tuple[bytearray, int | None]:
    """Read until the server closes or the declared body is complete, so a server
    that keeps the connection open cannot hold the call; return the reply and
    the size it declares (None without a Content-Length)."""
    reply, end = bytearray(), None
    while end is None or len(reply) < end:
        sock.settimeout(_remaining(deadline))
        chunk = sock.recv(65536)
        if not chunk:
            break
        reply += chunk
        if end is None and (split := reply.find(b"\r\n\r\n")) >= 0:
            length = _CONTENT_LENGTH.search(reply, 0, split + 2)
            end = split + 4 + int(length[1]) if length else None
        if max(len(reply), end or 0) > MAX_REPLY_BYTES:
            raise ValueError(f"reply exceeds {MAX_REPLY_BYTES} bytes")
    return reply, end
