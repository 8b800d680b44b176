"""Remote backend: wire format strictness, transport outcomes, deadlines."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hazcom import (
    BackendResponseError,
    BackendTimeout,
    BackendTransportError,
    Channel,
    Criticality,
    Engine,
    HazardCategory,
    RemoteBackend,
    ValidationError,
    oracle_verify,
    remote_assess,
    scripted_assess,
    builtin_rule_table,
    network_sink,
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
        with pytest.raises(BackendResponseError, match="strings"):
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
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).seen.append(json.loads(self.rfile.read(length)))
        if type(self).raw_reply is not None:
            self.wfile.write(type(self).raw_reply)
            return
        body = type(self).raw_body or json.dumps(type(self).response_doc).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.seen = []
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
    ], ids=["truncated-body", "bad-status-line"])
    def test_malformed_reply_falls_back(self, s1_obs, stub_server, monkeypatch, reply):
        monkeypatch.setattr(_StubHandler, "raw_reply", reply)
        backend = RemoteBackend(stub_server, timeout_ticks=50)
        with pytest.raises(BackendTransportError):
            backend.assess(s1_obs)
        result = Engine().step(s1_obs, backend)
        assert result.fallback_used
        assert result.output.criticality is Criticality.MEDIUM
        delivery = network_sink(Channel.REMOTE, stub_server).deliver(result.output, 0)
        assert not delivery.success
        assert delivery.detail.startswith("delivery failed: ")

    def test_unreachable_endpoint_is_transport_error(self, s1_obs):
        backend = RemoteBackend("http://127.0.0.1:9/assess", timeout_ticks=10)
        with pytest.raises(BackendTransportError):
            backend.assess(s1_obs)
