"""Minimal JSON-over-HTTP helper shared by the remote backend and sinks."""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request


def post_json(url: str, document: dict, timeout_s: float) -> dict:
    """POST a JSON document and return the parsed JSON response.

    Raises TimeoutError on deadline expiry, ConnectionError on transport
    failure, and ValueError on a non-JSON or non-object response.
    """
    body = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            payload = response.read()
    except urllib.error.HTTPError as exc:
        raise ConnectionError(f"HTTP {exc.code} from {url}") from exc
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, (socket.timeout, TimeoutError)):
            raise TimeoutError(f"no response from {url} within {timeout_s}s") from exc
        raise ConnectionError(f"cannot reach {url}: {exc.reason}") from exc
    except (socket.timeout, TimeoutError) as exc:
        raise TimeoutError(f"no response from {url} within {timeout_s}s") from exc
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"non-JSON response from {url}: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError(f"expected a JSON object from {url}")
    return document
