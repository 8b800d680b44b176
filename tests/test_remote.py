"""Remote backend: wire format strictness, transport outcomes, deadlines."""

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hazcom import (
    BackendResponseError,
    BackendTimeout,
    BackendTransportError,
    Channel,
    ConfigurationError,
    Criticality,
    Engine,
    HazardCategory,
    NetworkSink,
    RemoteBackend,
    ValidationError,
    oracle_verify,
    remote_assess,
    scripted_assess,
    builtin_rule_table,
)
from hazcom.clock import VirtualClock
from hazcom.perception import (
    decode_assessment,
    decode_observation,
    encode_assessment,
    encode_observation,
)



VALID_RESPONSE = {
    "category": "SharpObject",
    "d": "High",
    "tau": "Immediate",
    "phi": "HelpNeeded",
    "rho": 9.0,
    "rationale": "remote stub verdict",
}


class ScriptedTransport:
    """Transport double that spends virtual time instead of real time."""

    def __init__(self, clock, delay_ticks, response):
        self.clock = clock
        self.delay_ticks = delay_ticks
        self.response = response
        self.requests = []

    def __call__(self, endpoint, request, timeout_ticks):
        self.requests.append((endpoint, request))
        if self.delay_ticks > timeout_ticks:
            self.clock.advance(timeout_ticks)
            raise BackendTimeout(
                f"no response within {timeout_ticks} ticks"
            )
        self.clock.advance(self.delay_ticks)
        return self.response


class TestWireFormat:
    def test_observation_round_trip(self, s1_obs):
        assert decode_observation(encode_observation(s1_obs)) == s1_obs

    def test_assessment_round_trip(self, s1_obs):
        assessment = scripted_assess(builtin_rule_table(), s1_obs)
        assert decode_assessment(encode_assessment(assessment)) == assessment

    def test_no_hazard_round_trip(self):
        assert encode_assessment(None) == {"no_hazard": True}
        assert decode_assessment({"no_hazard": True}) is None

    def test_unknown_response_field_rejected(self):
        doc = dict(VALID_RESPONSE, confidence=0.9)
        with pytest.raises(BackendResponseError, match="confidence"):
            decode_assessment(doc)

    def test_missing_response_field_rejected(self):
        doc = dict(VALID_RESPONSE)
        del doc["phi"]
        with pytest.raises(BackendResponseError, match="phi"):
            decode_assessment(doc)

    def test_out_of_range_score_is_validation_error(self):
        doc = dict(VALID_RESPONSE, rho=12.0)
        with pytest.raises(ValidationError, match="12"):
            decode_assessment(doc)

    def test_band_incoherent_response_rejected(self):
        doc = dict(VALID_RESPONSE, d="Low")
        with pytest.raises(BackendResponseError, match="bands to"):
            decode_assessment(doc)

    def test_no_hazard_with_extras_rejected(self):
        with pytest.raises(BackendResponseError):
            decode_assessment({"no_hazard": True, "rho": 1.0})

    def test_unknown_request_field_rejected(self, s1_obs):
        doc = encode_observation(s1_obs)
        doc["extra"] = 1
        with pytest.raises(BackendResponseError, match="extra"):
            decode_observation(doc)

    def test_non_string_entity_label_rejected(self, s1_obs):
        doc = encode_observation(s1_obs)
        doc["entities"][0]["object_label"] = 5
        with pytest.raises(BackendResponseError, match="'object_label' must be a string, got 5"):
            decode_observation(doc)

    def test_non_string_caption_rejected(self, s1_obs):
        doc = dict(encode_observation(s1_obs), caption=5)
        with pytest.raises(BackendResponseError, match="caption"):
            decode_observation(doc)

    @pytest.mark.parametrize(
        "timestamp", [float("inf"), "3", 1.7, True],
        ids=["infinite", "string", "float", "bool"],
    )
    def test_non_integer_timestamp_rejected(self, s1_obs, timestamp):
        doc = dict(encode_observation(s1_obs), timestamp=timestamp)
        with pytest.raises(BackendResponseError, match="'timestamp' must be an integer"):
            decode_observation(doc)

    def test_non_boolean_vulnerable_present_rejected(self, s1_obs):
        doc = encode_observation(s1_obs)
        doc["env"]["vulnerable_present"] = "no"
        with pytest.raises(BackendResponseError, match="'vulnerable_present' must be true or false"):
            decode_observation(doc)

    def test_overflowing_score_falls_back(self, s1_obs):
        doc = dict(VALID_RESPONSE, rho=10**400)
        with pytest.raises(BackendResponseError, match="invalid response values"):
            decode_assessment(doc)
        backend = RemoteBackend("stub://model", transport=lambda *args: doc)
        result = Engine().step(s1_obs, backend)
        assert result.fallback_used
        assert oracle_verify([result.record.to_wire()]) == []


class TestScriptedTransportDeadline:
    def test_fast_response_parses(self, s1_obs):
        clock = VirtualClock()
        transport = ScriptedTransport(clock, delay_ticks=30, response=VALID_RESPONSE)
        result = remote_assess("stub://model", s1_obs, 200, transport)
        assert result.category is HazardCategory.SHARP_OBJECT
        assert clock.now == 30

    def test_timeout_fires_at_exactly_the_deadline(self, s1_obs):
        clock = VirtualClock()
        transport = ScriptedTransport(clock, delay_ticks=500, response=VALID_RESPONSE)
        with pytest.raises(BackendTimeout):
            remote_assess("stub://model", s1_obs, 200, transport)
        assert clock.now == 200

    def test_invalid_score_surfaces_from_transport(self, s1_obs):
        clock = VirtualClock()
        transport = ScriptedTransport(
            clock, delay_ticks=1, response=dict(VALID_RESPONSE, rho=12.0)
        )
        with pytest.raises(ValidationError):
            remote_assess("stub://model", s1_obs, 200, transport)

    def test_timeout_must_be_positive(self, s1_obs):
        with pytest.raises(ValidationError):
            remote_assess("stub://model", s1_obs, 0)


class _StubHandler(BaseHTTPRequestHandler):
    response_doc = VALID_RESPONSE
    raw_body = None
    raw_reply = None
    drip_s = 0.0  # pause before each byte of the reply
    hold_open = None  # an Event to wait for before closing the connection
    seen = []
    seen_requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).seen.append(json.loads(self.rfile.read(length)))
        type(self).seen_requests.append((self.request_version, dict(self.headers)))
        reply = type(self).raw_reply
        if reply is None:
            body = type(self).raw_body or json.dumps(type(self).response_doc).encode()
            reply = (
                b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            ) + body
        try:
            if type(self).drip_s:
                for index in range(len(reply)):
                    time.sleep(type(self).drip_s)
                    self.wfile.write(reply[index:index + 1])
            else:
                self.wfile.write(reply)
        except ConnectionError:
            return  # the client gave up first
        if type(self).hold_open is not None:
            type(self).hold_open.wait(10)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # A short poll interval lets shutdown() return promptly at teardown.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _StubHandler.seen = []
    _StubHandler.seen_requests = []
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/assess"
    finally:
        server.shutdown()
        server.server_close()


class TestHttpTransport:
    def test_round_trip_against_stub_server(self, s1_obs, stub_server):
        backend = RemoteBackend(stub_server, timeout_ticks=50)
        result = backend.assess(s1_obs)
        assert result is not None
        assert result.category is HazardCategory.SHARP_OBJECT
        assert result.factors.criticality_level is Criticality.HIGH
        # The request body carried the full observation.
        assert _StubHandler.seen[0] == encode_observation(s1_obs)

    def test_request_is_http_1_0_with_connection_close(self, s1_obs, stub_server):
        endpoint = stub_server.replace("http://", "http://user:secret@")
        RemoteBackend(endpoint, timeout_ticks=50).assess(s1_obs)
        version, headers = _StubHandler.seen_requests[0]
        assert version == "HTTP/1.0"
        assert headers["Host"] == stub_server.split("/")[2]  # no userinfo
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(json.dumps(encode_observation(s1_obs)))

    def test_deeply_nested_reply_falls_back(self, s1_obs, stub_server, monkeypatch):
        monkeypatch.setattr(_StubHandler, "raw_body", b"[" * 200_000)
        backend = RemoteBackend(stub_server, timeout_ticks=50)
        with pytest.raises(BackendResponseError, match="non-JSON"):
            backend.assess(s1_obs)
        result = Engine().step(s1_obs, backend)
        assert result.fallback_used
        assert result.output.criticality is Criticality.MEDIUM

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{\"category\": ",
        b"GARBAGE\r\n\r\n",
        b"HTTP/1.0 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
        b"",
        b"HTTP/1.0 200 OK\r\nContent-Type: application/json",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.0 302 Found\r\nLocation: /assess\r\nContent-Length: 0\r\n\r\n",
    ], ids=["truncated-body", "bad-status-line", "http-500", "closed-before-headers",
            "no-end-of-headers", "transfer-encoding", "redirect"])
    def test_malformed_reply_falls_back(self, s1_obs, stub_server, monkeypatch, reply):
        monkeypatch.setattr(_StubHandler, "raw_reply", reply)
        backend = RemoteBackend(stub_server, timeout_ticks=50)
        with pytest.raises(BackendTransportError):
            backend.assess(s1_obs)
        result = Engine().step(s1_obs, backend)
        assert result.fallback_used
        assert result.output.criticality is Criticality.MEDIUM
        delivery = NetworkSink(Channel.REMOTE, stub_server).deliver(result.output, 0)
        assert not delivery.success
        assert delivery.detail.startswith("delivery failed: ")

    def test_unreachable_endpoint_is_transport_error(self, s1_obs):
        backend = RemoteBackend("http://127.0.0.1:9/assess", timeout_ticks=10)
        with pytest.raises(BackendTransportError):
            backend.assess(s1_obs)

    def test_slow_drip_reply_times_out_at_the_deadline(self, s1_obs, stub_server, monkeypatch):
        # Every byte arrives well inside a per-read timeout; only a deadline
        # over the whole exchange stops the call.
        monkeypatch.setattr(_StubHandler, "drip_s", 0.2)
        backend = RemoteBackend(stub_server, timeout_ticks=10)
        start = time.monotonic()
        with pytest.raises(BackendTimeout):
            backend.assess(s1_obs)
        assert time.monotonic() - start < 1.5

    def test_oversized_reply_falls_back(self, s1_obs, stub_server, monkeypatch):
        doc = dict(VALID_RESPONSE, rationale="x" * (2 << 20))
        monkeypatch.setattr(_StubHandler, "response_doc", doc)
        backend = RemoteBackend(stub_server, timeout_ticks=50)
        with pytest.raises(BackendResponseError, match="exceeds"):
            backend.assess(s1_obs)
        result = Engine().step(s1_obs, backend)
        assert result.fallback_used
        assert oracle_verify([result.record.to_wire()]) == []

    def test_keep_alive_server_does_not_hold_the_call(self, s1_obs, stub_server, monkeypatch):
        body = json.dumps(VALID_RESPONSE).encode()
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        released = threading.Event()
        monkeypatch.setattr(_StubHandler, "raw_reply", reply)
        monkeypatch.setattr(_StubHandler, "hold_open", released)
        try:
            start = time.monotonic()
            result = RemoteBackend(stub_server, timeout_ticks=50).assess(s1_obs)
            assert time.monotonic() - start < 1.0
        finally:
            released.set()
        assert result.category is HazardCategory.SHARP_OBJECT


# Replies shaped like HTTP often enough to reach every check in the client.
_REPLIES = st.one_of(
    st.binary(max_size=200),
    st.tuples(
        st.sampled_from([b"HTTP/1.0 200 OK", b"HTTP/1.1 204", b"HTTP/1.0 503 Busy",
                         b"HTTP/1.0 301 Moved", b"HTTP/2 200 OK", b"HTTP/1.0 20 OK", b""]),
        st.lists(st.sampled_from([
            b"Content-Type: application/json", b"Content-Length: 5", b"content-length:0",
            b"Content-Length: 99999999", b"Content-Length: x", b"Transfer-Encoding: chunked",
        ]), max_size=3),
        st.one_of(
            st.binary(max_size=100),
            st.text(max_size=100).map(str.encode),
            st.sampled_from([json.dumps(VALID_RESPONSE).encode(), b'{"no_hazard": true}',
                             b"[]", b'{"rho": 1e999}']),
        ),
    ).map(lambda parts: b"\r\n".join([parts[0], *parts[1], b""]) + b"\r\n" + parts[2]),
)


class TestReplyFuzz:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reply=_REPLIES)
    def test_no_reply_escapes_the_step(self, s1_obs, stub_server, monkeypatch, reply):
        monkeypatch.setattr(_StubHandler, "raw_reply", reply)
        result = Engine().step(s1_obs, RemoteBackend(stub_server, timeout_ticks=20))
        assert oracle_verify([result.record.to_wire()]) == []


class TestEndpointValidation:
    @pytest.mark.parametrize("endpoint", [
        "127.0.0.1:8000/assess", "https://127.0.0.1/assess", "http:///assess",
        "http://127.0.0.1:99999/assess", "http://[::1/assess", "http://127.0.0.1/a b", "",
    ])
    def test_unusable_endpoint_rejected_when_built(self, endpoint):
        with pytest.raises(ConfigurationError):
            RemoteBackend(endpoint)
        with pytest.raises(ConfigurationError):
            NetworkSink(Channel.REMOTE, endpoint)

    def test_custom_transport_takes_any_endpoint(self, s1_obs):
        backend = RemoteBackend("stub://model", transport=lambda *args: VALID_RESPONSE)
        assert backend.assess(s1_obs).category is HazardCategory.SHARP_OBJECT


def test_import_loads_no_http_client_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["hazcom"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import hazcom, sys; print(*sorted(m for m in ('urllib.request', 'http.client', "
         "'email.parser', 'ssl') if m in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout
    assert loaded.split() == []
