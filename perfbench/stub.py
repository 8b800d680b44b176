"""Loopback stub model server for the ``remote_loopback`` workload.

Single-threaded ``http.server`` on ``127.0.0.1`` with an OS-assigned port.
It answers every POST with the scripted rule-table verdict for the decoded
observation, so a remote run must reproduce the in-process scripted run
exactly.  The port is printed as the first line of standard output; the
server stops when its standard input reaches end of file, so it never
outlives the benchmark process that started it.

Run with ``src`` on ``PYTHONPATH``:  ``python3 perfbench/stub.py``
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from hazcom.perception import (
    builtin_rule_table,
    decode_observation,
    encode_assessment,
    scripted_assess,
)

TABLE = builtin_rule_table()


class AssessHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        verdict = scripted_assess(TABLE, decode_observation(json.loads(body)))
        payload = json.dumps(encode_assessment(verdict)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        """Keep per-request logging off the timed path."""


def main() -> None:
    server = HTTPServer(("127.0.0.1", 0), AssessHandler)

    def stop_at_eof() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_at_eof, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
