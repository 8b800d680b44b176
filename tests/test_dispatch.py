import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hazcom import (
    Channel,
    ConfigurationError,
    Criticality,
    EnvContext,
    HazardCategory,
    LocationType,
    RiskScore,
    assemble_output,
    dispatch,
    memory_registry,
    memory_sink,
    network_sink,
    recipients_for,
)
from hazcom.dispatch import DeliveryRecord, build_registry, comm_output_wire


def output_for(rho, category=HazardCategory.SHARP_OBJECT):
    return assemble_output(category, RiskScore(rho), EnvContext(LocationType.CORRIDOR))


class ExplodingSink:
    def __init__(self, channel):
        self.channel = channel

    def deliver(self, output, tick):
        raise RuntimeError("boom")


class TestDispatch:
    def test_low_output_reaches_only_nearby(self):
        records = dispatch(output_for(2.0), memory_registry(), tick=5)
        assert [r.channel for r in records] == [Channel.NEARBY]
        assert all(r.success for r in records)

    def test_high_output_reaches_all_three_in_order(self):
        records = dispatch(output_for(9.0), memory_registry(), tick=5)
        assert [r.channel for r in records] == [
            Channel.NEARBY, Channel.REMOTE, Channel.COORDINATION,
        ]

    def test_channel_recipient_exactness_per_grade(self):
        for rho, grade in ((2.0, Criticality.LOW), (6.0, Criticality.MEDIUM),
                           (9.0, Criticality.HIGH)):
            records = dispatch(output_for(rho), memory_registry(), tick=0)
            assert {r.channel for r in records} == recipients_for(grade)

    def test_missing_sink_fails_before_any_delivery(self):
        sinks = memory_registry()
        del sinks[Channel.COORDINATION]
        with pytest.raises(ConfigurationError, match="coordination"):
            dispatch(output_for(9.0), sinks, tick=0)
        assert sinks[Channel.NEARBY].log == []

    def test_failing_sink_is_isolated(self):
        output = output_for(6.0)
        sinks = {
            Channel.NEARBY: memory_sink(Channel.NEARBY),
            Channel.REMOTE: ExplodingSink(Channel.REMOTE),
            Channel.COORDINATION: memory_sink(Channel.COORDINATION),
        }
        records = dispatch(output, sinks, tick=3)
        assert [r.success for r in records] == [True, False]
        assert [r.channel for r in records] == [Channel.NEARBY, Channel.REMOTE]
        # coordination is outside a Medium recipient set: never invoked
        assert sinks[Channel.COORDINATION].log == []
        # the output itself is untouched by the failure
        assert output.message.text

    def test_duplicate_sink_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_registry([memory_sink(Channel.NEARBY), memory_sink(Channel.NEARBY)])

    def test_registry_from_iterable(self):
        sinks = [memory_sink(channel) for channel in Channel]
        records = dispatch(output_for(9.0), sinks, tick=1)
        assert len(records) == 3


class TestMemorySink:
    def test_log_grows_and_preserves_order(self):
        sink = memory_sink(Channel.NEARBY)
        assert sink.log == []
        first = output_for(2.0)
        second = output_for(3.0)
        sink.deliver(first, 1)
        sink.deliver(second, 2)
        assert len(sink.log) == 2
        assert sink.log[0].tick == 1
        assert sink.log[1].tick == 2
        assert all(isinstance(r, DeliveryRecord) for r in sink.log)

    def test_records_are_immutable_hashable_tuples(self):
        record = memory_sink(Channel.REMOTE).deliver(output_for(6.0), 4)
        with pytest.raises(AttributeError):
            record.success = False
        assert not hasattr(record, "__dict__")
        assert {record: 1}[record] == 1
        assert DeliveryRecord._fields == ("channel", "tick", "success", "detail")
        # A record is a named tuple, so it equals the plain tuple of its fields.
        assert record == (Channel.REMOTE, 4, True, f"alert: {output_for(6.0).message.text}")


class _CaptureHandler(BaseHTTPRequestHandler):
    bodies = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).bodies.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


@pytest.fixture
def capture_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CaptureHandler)
    # A short poll interval lets shutdown() return promptly at teardown.
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    ).start()
    _CaptureHandler.bodies = []
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/notify"
    finally:
        server.shutdown()
        server.server_close()


class TestNetworkSink:
    def test_body_round_trips_all_fields(self, capture_server):
        output = output_for(6.0, HazardCategory.UNATTENDED_ITEM)
        sink = network_sink(Channel.REMOTE, capture_server)
        record = sink.deliver(output, tick=42)
        assert record.success is True
        body = _CaptureHandler.bodies[0]
        assert body == comm_output_wire(output, 42)
        assert body["tick"] == 42
        assert body["category"] == "UnattendedItem"
        assert body["k"] == "Medium"
        assert body["rho"] == 6.0
        assert body["gamma"] == 6.0
        assert body["chi"] == "alert"
        assert body["recipients"] == ["nearby", "remote"]
        assert body["alarm"] is True
        assert body["text"] == output.message.text

    def test_high_output_body_contains_urgent(self, capture_server):
        sink = network_sink(Channel.COORDINATION, capture_server)
        sink.deliver(output_for(9.0), tick=0)
        assert _CaptureHandler.bodies[0]["chi"] == "urgent"

    def test_unreachable_endpoint_is_failure_record(self):
        sink = network_sink(Channel.REMOTE, "http://127.0.0.1:9/nowhere")
        record = sink.deliver(output_for(6.0), tick=0)
        assert record.success is False
        assert "failed" in record.detail
