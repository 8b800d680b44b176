import pytest

from hazcom import (
    Channel,
    ConfigurationError,
    Criticality,
    EnvContext,
    HazardCategory,
    LocationType,
    MemorySink,
    RiskScore,
    assemble_output,
    dispatch,
    memory_registry,
    recipients_for,
)
from hazcom.core import policy_output
from hazcom.dispatch import DELIVERY_MEMO_SIZE, DeliveryRecord, _records


def output_for(rho, category=HazardCategory.SHARP_OBJECT):
    return assemble_output(category, RiskScore(rho), EnvContext(LocationType.CORRIDOR))


class ExplodingSink:
    def __init__(self, channel):
        self.channel = channel

    def deliver(self, output, tick):
        raise RuntimeError("boom")


class RecordingSink:
    """Delivers as a memory sink does and keeps every record."""

    def __init__(self, channel):
        self.channel = channel
        self.log = []

    def deliver(self, output, tick):
        record = MemorySink(self.channel).deliver(output, tick)
        self.log.append(record)
        return record


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
        sinks = {channel: RecordingSink(channel) for channel in Channel}
        del sinks[Channel.COORDINATION]
        with pytest.raises(ConfigurationError, match="coordination"):
            dispatch(output_for(9.0), sinks, tick=0)
        assert sinks[Channel.NEARBY].log == []
        assert sinks[Channel.REMOTE].log == []

    def test_failing_sink_is_isolated(self):
        output = output_for(6.0)
        sinks = {
            Channel.NEARBY: RecordingSink(Channel.NEARBY),
            Channel.REMOTE: ExplodingSink(Channel.REMOTE),
            Channel.COORDINATION: RecordingSink(Channel.COORDINATION),
        }
        records = dispatch(output, sinks, tick=3)
        assert [r.success for r in records] == [True, False]
        assert [r.channel for r in records] == [Channel.NEARBY, Channel.REMOTE]
        assert sinks[Channel.NEARBY].log == records[:1]
        # coordination is outside a Medium recipient set: never invoked
        assert sinks[Channel.COORDINATION].log == []
        # the output itself is untouched by the failure
        assert output.message.text


class TestRoutesFromTheOutput:
    def test_delivers_exactly_the_recipients_the_output_carries(self):
        output = policy_output("text", RiskScore(9.0), HazardCategory.SHARP_OBJECT)
        object.__setattr__(output, "recipients", (Channel.NEARBY,))
        sinks = {channel: RecordingSink(channel) for channel in Channel}
        records = dispatch(output, sinks, tick=0)
        assert [r.channel for r in records] == [Channel.NEARBY]
        assert sinks[Channel.NEARBY].log == records
        assert sinks[Channel.REMOTE].log == sinks[Channel.COORDINATION].log == []

    def test_missing_sinks_are_named_before_any_delivery(self):
        sinks = {Channel.NEARBY: RecordingSink(Channel.NEARBY)}
        with pytest.raises(ConfigurationError,
                           match=r"channels: \['remote', 'coordination'\]$"):
            dispatch(output_for(9.0), sinks, tick=0)
        assert sinks[Channel.NEARBY].log == []


class TestMemorySink:
    def test_records_are_immutable_hashable_tuples(self):
        record = MemorySink(Channel.REMOTE).deliver(output_for(6.0), 4)
        with pytest.raises(AttributeError):
            record.success = False
        assert not hasattr(record, "__dict__")
        assert {record: 1}[record] == 1
        assert DeliveryRecord._fields == ("channel", "tick", "success", "detail")
        # A record is a named tuple, so it equals the plain tuple of its fields.
        assert record == (Channel.REMOTE, 4, True, f"alert: {output_for(6.0).message.text}")

    def test_deliveries_of_one_message_share_their_detail(self):
        output = output_for(6.0)
        first = MemorySink(Channel.NEARBY).deliver(output, 1)
        second = MemorySink(Channel.REMOTE).deliver(output_for(6.0), 9)
        assert first.detail == f"alert: {output.message.text}"
        assert first.detail is second.detail

    def test_records_are_shared_per_channel_tick_and_detail(self):
        _records.clear()  # so that no start-over falls between two deliveries
        output = output_for(6.0)
        detail = f"alert: {output.message.text}"
        records = {(channel, tick): MemorySink(channel).deliver(output, tick)
                   for channel in Channel for tick in (1, 2)}
        for (channel, tick), record in records.items():
            assert record == (channel, tick, True, detail)
            assert MemorySink(channel).deliver(output_for(6.0), tick) is record

    def test_memo_stays_within_its_bound_and_records_stay_exact(self):
        output = output_for(9.0)
        detail = f"urgent: {output.message.text}"
        sink = MemorySink(Channel.COORDINATION)
        ticks = range(10**6, 10**6 + 2 * DELIVERY_MEMO_SIZE + 100)
        sizes = set()
        for tick in ticks:
            assert sink.deliver(output, tick) == (Channel.COORDINATION, tick, True, detail)
            sizes.add(len(_records))
        # The memo filled up, started over, and never held more than its bound.
        assert max(sizes) == DELIVERY_MEMO_SIZE and min(sizes) == 1
        assert sink.deliver(output, ticks[-1]) is sink.deliver(output, ticks[-1])
        assert sink.deliver(output, ticks[0]) == (Channel.COORDINATION, ticks[0], True, detail)
