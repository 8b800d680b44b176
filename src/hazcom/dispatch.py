"""Multi-party delivery: fan one communication out to its channel sinks.

An output carries its recipients in delivery order (nearby -> remote ->
coordination), and dispatch delivers exactly those.  A failing sink yields
a failure record but never blocks the other channels and never mutates the
output being delivered.  The package's one sink is :class:`MemorySink`; any
object with a ``channel`` and a ``deliver`` method serves as a custom one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Protocol

from .core import CHANNEL_ORDER, Channel, CommOutput, ConfigurationError


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


@lru_cache(maxsize=1024)
def _memory_detail(character: str, text: str) -> str:
    """One shared detail string per message: texts come from templates, so
    they repeat across deliveries and runs."""
    return f"{character}: {text}"


#: Most delivery records the memory sinks keep for sharing.  A suite's
#: deliveries repeat a few hundred to about a thousand distinct values
#: (channel, tick, detail), so the memo holds them all with room to spare.
DELIVERY_MEMO_SIZE = 4096

# (channel, tick, detail) -> the one record of that successful delivery.
# The memo starts over when full.
_records: dict[tuple[Channel, int, str], DeliveryRecord] = {}


@dataclass(frozen=True)
class MemorySink:
    """In-memory sink: always succeeds and keeps nothing, so one sink can
    serve any number of runs.  Its records are shared: deliveries equal in
    channel, tick and detail return one immutable record."""

    channel: Channel

    def deliver(self, output: CommOutput, tick: int) -> DeliveryRecord:
        message = output.message
        detail = _memory_detail(message.character._value_, message.text)
        key = (self.channel, tick, detail)
        record = _records.get(key)
        if record is None:
            if len(_records) >= DELIVERY_MEMO_SIZE:
                _records.clear()
            record = _records[key] = DeliveryRecord(self.channel, tick, True, detail)
        return record


SinkRegistry = Mapping[Channel, ChannelSink]


def memory_registry() -> dict[Channel, MemorySink]:
    """One memory sink per channel; handy default for simulated runs."""
    return {channel: MemorySink(channel) for channel in CHANNEL_ORDER}


def dispatch(output: CommOutput, sinks: SinkRegistry, tick: int) -> list[DeliveryRecord]:
    """Deliver to exactly the output's recipients, in the order it carries.

    ``sinks`` maps each channel to its sink.  A sink must exist for every
    recipient before any delivery is attempted; channels outside the
    output's recipients are never invoked.
    """
    recipients = output.recipients
    for channel in recipients:
        if channel not in sinks:
            missing = [ch.value for ch in recipients if ch not in sinks]
            raise ConfigurationError(f"no sink registered for channels: {missing}")

    records: list[DeliveryRecord] = []
    for channel in recipients:
        sink = sinks[channel]
        try:
            record = sink.deliver(output, tick)
        except Exception as exc:  # sink bugs must not block other channels
            record = DeliveryRecord(channel, tick, False, f"sink error: {exc}")
        records.append(record)
    return records
