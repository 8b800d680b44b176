"""Minimal JSON-over-HTTP client of the remote backend.

Each call is one HTTP/1.0 exchange with ``Connection: close`` on a plain
socket.  One deadline bounds all of it, and a reply over MAX_REPLY_BYTES is
refused.  Only ``http://`` URLs are served; proxies from the environment are
not used, and redirects are not followed (a 3xx is a transport failure).
The limits (:func:`check_limits`) and each failure's backend error are decided here.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from functools import lru_cache
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import NamedTuple
from urllib.parse import urlsplit

from .clock import TICKS_PER_SECOND, ticks_to_seconds
from .core import (BackendResponseError, BackendTimeout, BackendTransportError,
                   ConfigurationError, parse_json)

MAX_REPLY_BYTES = 1 << 20
_ENDPOINTS_KEPT = 32  # parsed URLs kept; a process posts to a handful
_STATUS_LINE = re.compile(rb"HTTP/\d+(?:\.\d+)? (\d{3})(?: [^\r\n]*)?(?:\r\n|\Z)")
_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length[ \t]*:[ \t]*(\d+)[ \t]*\r\n", re.I)
_TRANSFER_ENCODING = re.compile(rb"\r\ntransfer-encoding[ \t]*:", re.I)
_UNSAFE_URL_CHAR = re.compile(r"[^\x21-\x7e]")  # space, control or non-ASCII
if c_make_encoder is None:  # a Python without json's C accelerator
    _json_text = json.dumps
else:
    # json.dumps's encoder, built once instead of on every call, and without
    # the cycle check: a request is encode_observation's tree of new dicts and
    # lists.  Arguments: markers, default, string encoder, indent, key and
    # item separators, sort_keys, skipkeys, allow_nan.
    _encoder = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                              ": ", ", ", False, False, True)

    def _json_text(document: dict) -> str:
        return "".join(_encoder(document, 0))


class Endpoint(NamedTuple):
    """What every post to one URL shares."""

    host: bytes  # the host name as the IDNA codec encodes it
    port: int
    head: bytes  # the request head, up to the value of Content-Length
    addresses: tuple  # getaddrinfo's answer for a numeric host; empty for a name


@lru_cache(maxsize=_ENDPOINTS_KEPT)
def parse_url(url: str) -> Endpoint:
    """Return what every post to ``url`` shares, or raise ConfigurationError
    unless it is an ``http://`` URL with a host the IDNA codec can encode."""
    try:
        parts = urlsplit(url)
        port = parts.port  # ValueError on a broken IPv6 host or a port not in 0-65535
    except ValueError as exc:
        raise ConfigurationError(f"bad endpoint {url!r}: {exc}") from exc
    if parts.scheme != "http" or not parts.hostname or _UNSAFE_URL_CHAR.search(url):
        raise ConfigurationError(f"endpoint must be an http://host[:port]/path URL, got {url!r}")
    try:
        host = parts.hostname.encode("idna")  # as getaddrinfo would on every post
    except UnicodeError as exc:  # an empty label or one over 63 characters
        raise ConfigurationError(f"bad host in endpoint {url!r}: {exc}") from exc
    port = 80 if port is None else port
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    head = (
        f"POST {path} HTTP/1.0\r\nHost: {parts.netloc.rpartition('@')[2]}\r\n"  # no userinfo
        "Content-Type: application/json\r\nContent-Length: "
    ).encode("ascii")
    try:  # a numeric host needs no lookup, so its answer holds for every post
        addresses = tuple(socket.getaddrinfo(host, port, 0, socket.SOCK_STREAM, 0,
                                             socket.AI_NUMERICHOST))
    except OSError:  # a name, resolved on each post
        addresses = ()
    return Endpoint(host, port, head, addresses)


def check_limits(url: str, timeout_ticks: int) -> tuple[Endpoint, float]:
    """The endpoint of ``url`` and the timeout in seconds, or ConfigurationError
    for a URL :func:`parse_url` refuses or a wait no socket can make, a tick
    count too large for a float included."""
    endpoint = parse_url(url)
    # Compared in ticks, exactly: in seconds, a count past a float would raise
    # OverflowError, and a socket past this range raises it too.
    if not timeout_ticks < threading.TIMEOUT_MAX * TICKS_PER_SECOND:
        raise ConfigurationError(
            f"timeout is out of range: a socket waits at most {threading.TIMEOUT_MAX}s")
    return endpoint, ticks_to_seconds(timeout_ticks)


def post_json(url: str, document: dict, timeout_ticks: int) -> dict:
    """POST a JSON document and return the parsed JSON response.

    The body is the bytes of ``json.dumps(document)``, from one encoder built
    at import; ``document`` must hold no reference cycle.  ``url`` is parsed,
    its request head framed and its host checked on the first post to it
    only.  A numeric host is connected without a lookup; a named host is
    resolved on every post.  ``timeout_ticks`` bounds the whole exchange
    (that blocking name lookup aside).  A failure raises its backend error,
    naming ``url``: BackendTimeout past the deadline, BackendTransportError on
    refused limits or an unreachable host, BackendResponseError on an oversized
    reply, and :func:`parse_reply`'s on the reply.
    """
    try:
        endpoint, timeout_s = check_limits(url, timeout_ticks)
    except ConfigurationError as exc:
        raise BackendTransportError(f"cannot reach {url}: {exc}") from exc
    deadline = time.monotonic() + timeout_s
    body = _json_text(document).encode("utf-8")
    request = endpoint.head + b"%d\r\nConnection: close\r\n\r\n" % len(body) + body
    try:
        addresses = endpoint.addresses or socket.getaddrinfo(
            endpoint.host, endpoint.port, 0, socket.SOCK_STREAM)
        with _connect(addresses, deadline) as sock:
            sock.settimeout(_remaining(deadline))
            sock.sendall(request)
            reply, end = _receive(sock, deadline, url)
    except TimeoutError as exc:
        raise BackendTimeout(f"no response from {url} within {timeout_s}s") from exc
    except OSError as exc:
        raise BackendTransportError(f"cannot reach {url}: {exc}") from exc
    return parse_reply(reply, end, url)


def parse_reply(reply: bytes, end: int | None, url: str) -> dict:
    """The JSON object ``reply`` from ``url`` carries, its end declared at ``end``
    (None without a Content-Length); else BackendTransportError for broken
    HTTP framing or a status outside 2xx, BackendResponseError for the body."""
    head, separator, _ = reply.partition(b"\r\n\r\n")
    status = _STATUS_LINE.match(head)
    if not separator or status is None:
        raise BackendTransportError(f"bad reply from {url}: no status line and headers")
    if _TRANSFER_ENCODING.search(head):
        raise BackendTransportError(
            f"bad reply from {url}: Transfer-Encoding in a reply to HTTP/1.0")
    if end is not None and len(reply) < end:
        raise BackendTransportError(
            f"bad reply from {url}: body {end - len(reply)} bytes short")
    if not status[1].startswith(b"2"):
        raise BackendTransportError(f"HTTP {int(status[1])} from {url}")
    document = parse_json(reply[len(head) + 4:end], f"response from {url}", BackendResponseError)
    if not isinstance(document, dict):
        raise BackendResponseError(f"expected a JSON object from {url}")
    return document


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


def _connect(addresses: tuple | list, deadline: float) -> socket.socket:
    """A socket connected to the first of ``addresses`` that accepts, as
    ``socket.create_connection`` would; raise the last failure if none does."""
    error = OSError("getaddrinfo returns an empty list")
    for family, kind, proto, _, address in addresses:
        sock = socket.socket(family, kind, proto)
        try:
            sock.settimeout(_remaining(deadline))
            sock.connect(address)
            return sock
        except OSError as exc:
            sock.close()
            error = exc
    raise error


def _receive(sock: socket.socket, deadline: float, url: str) -> tuple[bytearray, int | None]:
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
            raise BackendResponseError(f"reply from {url} exceeds {MAX_REPLY_BYTES} bytes")
    return reply, end
