"""Multi-party delivery: fan one communication out to its channel sinks.

Delivery order is nearby -> remote -> coordination.  A failing sink yields
a failure record but never blocks the other channels and never mutates the
output being delivered.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Union

from . import _http
from .clock import ticks_to_seconds
from .core import CHANNEL_ORDER, RECIPIENTS_IN_ORDER, Channel, CommOutput, ConfigurationError


class DeliveryRecord(NamedTuple):
    """Outcome of one delivery attempt on one channel."""

    channel: Channel
    tick: int
    success: bool
    detail: str


class ChannelSink(Protocol):
    """A delivery endpoint serving exactly one channel."""

    channel: Channel

    def deliver(self, output: CommOutput, tick: int) -> DeliveryRecord: ...


def comm_output_wire(output: CommOutput, tick: int) -> dict:
    """Serialize a communication for network sinks and replay."""
    return {
        "tick": tick,
        "category": output.category._value_ if output.category else None,
        "k": output.criticality._value_,
        "rho": output.risk.value,
        "gamma": output.message.tone,
        "chi": output.message.character._value_,
        "text": output.message.text,
        "recipients": [c._value_ for c in RECIPIENTS_IN_ORDER[output.criticality]],
        "alarm": output.alarm,
    }


@dataclass
class MemorySink:
    """In-memory sink: records every delivery, always succeeds."""

    channel: Channel
    log: list[DeliveryRecord] = field(default_factory=list)

    def deliver(self, output: CommOutput, tick: int) -> DeliveryRecord:
        message = output.message
        record = DeliveryRecord(
            self.channel, tick, True, f"{message.character._value_}: {message.text}"
        )
        self.log.append(record)
        return record


def memory_sink(channel: Channel) -> MemorySink:
    return MemorySink(channel=channel)


@dataclass
class NetworkSink:
    """Posts the wire document to an HTTP endpoint.

    Transport failures become failure records; no exception escapes a
    delivery attempt.  An endpoint that is not an ``http://`` URL with a host
    raises ConfigurationError when the sink is built.
    """

    channel: Channel
    endpoint: str
    timeout_ticks: int = 50

    def __post_init__(self) -> None:
        _http.parse_url(self.endpoint)

    def deliver(self, output: CommOutput, tick: int) -> DeliveryRecord:
        try:
            _http.post_json(
                self.endpoint,
                comm_output_wire(output, tick),
                ticks_to_seconds(self.timeout_ticks),
            )
        except (TimeoutError, ConnectionError, ValueError) as exc:
            return DeliveryRecord(self.channel, tick, False, f"delivery failed: {exc}")
        return DeliveryRecord(self.channel, tick, True, f"posted to {self.endpoint}")


def network_sink(channel: Channel, endpoint: str, timeout_ticks: int = 50) -> NetworkSink:
    return NetworkSink(channel=channel, endpoint=endpoint, timeout_ticks=timeout_ticks)


SinkRegistry = Mapping[Channel, ChannelSink]


def build_registry(sinks: Iterable[ChannelSink]) -> dict[Channel, ChannelSink]:
    registry: dict[Channel, ChannelSink] = {}
    for sink in sinks:
        if sink.channel in registry:
            raise ConfigurationError(
                f"duplicate sink for channel {sink.channel.value}"
            )
        registry[sink.channel] = sink
    return registry


def memory_registry() -> dict[Channel, MemorySink]:
    """One memory sink per channel; handy default for simulated runs."""
    return {channel: MemorySink(channel) for channel in CHANNEL_ORDER}


def dispatch(
    output: CommOutput,
    sinks: Union[SinkRegistry, Iterable[ChannelSink]],
    tick: int,
) -> list[DeliveryRecord]:
    """Deliver to exactly the output's recipient channels, in channel order.

    A sink must exist for every required channel before any delivery is
    attempted; channels outside the recipient set are never invoked.
    """
    # A plain dict is tested by type first: the abstract Mapping test costs
    # several times as much, and every step's outputs are dispatched.
    registry = (
        sinks if type(sinks) is dict or isinstance(sinks, Mapping) else build_registry(sinks)
    )
    if not registry.keys() >= output.recipients:
        missing = [
            ch.value for ch in RECIPIENTS_IN_ORDER[output.criticality] if ch not in registry
        ]
        raise ConfigurationError(f"no sink registered for channels: {missing}")

    records: list[DeliveryRecord] = []
    for channel in RECIPIENTS_IN_ORDER[output.criticality]:
        sink = registry[channel]
        try:
            record = sink.deliver(output, tick)
        except Exception as exc:  # sink bugs must not block other channels
            record = DeliveryRecord(channel, tick, False, f"sink error: {exc}")
        records.append(record)
    return records
