import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazcom import (
    Channel,
    Criticality,
    Engine,
    EngineConfig,
    HazardCategory,
    LocationType,
    PendingQueue,
    RiskScore,
    StageTimers,
    TraceRecord,
    ValidationError,
    assemble_output,
    fallback_output,
    oracle_verify,
    read_trace,
    recipients_for,
    write_trace,
)
from hazcom.clock import VirtualClock, WallClock, seconds_to_ticks, ticks_to_seconds
from hazcom.core import EnvContext
from hazcom.perception import (
    BackendError,
    FaultProfile,
    ScriptedBackend,
    FaultInjectingBackend,
)

from conftest import make_obs


class FailingBackend:
    def assess(self, obs):
        raise BackendError("synthetic backend failure")


class TestClock:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        clock.advance(7)
        assert clock.now == 7
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_wall_clock_reads_monotonic(self):
        clock = WallClock()
        assert clock.now >= 0
        clock.advance(100)  # no-op by design

    def test_conversions(self):
        assert seconds_to_ticks(20.0) == 200
        assert ticks_to_seconds(120) == 12.0


class TestStageTimers:
    def test_paper_profile_sums_to_twelve_seconds(self):
        timers = StageTimers(t_camera=10, t_heatmap=15, t_llm=95, t_comm=0)
        assert timers.total == 120
        assert ticks_to_seconds(timers.total) == 12.0

    def test_all_zero(self):
        assert StageTimers(0, 0, 0, 0).total == 0

    def test_plain_sum(self):
        assert StageTimers(10, 10, 10, 10).total == 40

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            StageTimers(-1, 0, 0, 0)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.t_max == 200
        assert config.weights == (0.25, 0.25, 0.25, 0.25)
        assert config.fatigue_lambda == 1.0

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            EngineConfig(weights=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValidationError):
            EngineConfig(weights=(1.0, 0.0, 0.0))

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError):
            EngineConfig(t_max=0)

    @pytest.mark.parametrize("field, value", [
        ("t_max", float("nan")), ("t_max", float("inf")),
        ("fatigue_lambda", float("nan")), ("fatigue_lambda", float("inf")),
        ("suppression_window", float("nan")), ("suppression_window", float("inf")),
        ("weights", (float("nan"), 0.25, 0.25, 0.25)),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            EngineConfig(**{field: value})


class TestStep:
    def test_kitchen_knife_step_no_alarm(self, s2_obs, scripted):
        engine = Engine()
        result = engine.step(s2_obs, scripted)
        assert result.output is not None
        assert result.output.alarm is False
        assert result.output.recipients == {Channel.NEARBY}
        assert engine.alarm_latched is False
        assert result.fallback_used is False
        assert result.timers.total == 120

    def test_corridor_knife_latches_alarm(self, s1_obs, scripted):
        engine = Engine()
        result = engine.step(s1_obs, scripted)
        assert result.output.alarm is True
        assert engine.alarm_latched is True
        assert engine.last_known_criticality is Criticality.HIGH

    def test_empty_step_resets_alarm(self, s1_obs, empty_obs, scripted):
        engine = Engine()
        engine.step(s1_obs, scripted)
        assert engine.alarm_latched is True
        result = engine.step(empty_obs, scripted)
        assert engine.alarm_latched is False
        assert result.output is None
        assert result.record.criticality is None
        assert result.record.alarm is False

    def test_slow_backend_triggers_fallback(self, s1_obs, scripted):
        engine = Engine()
        slow = FaultInjectingBackend(
            scripted, FaultProfile(added_delay=250), engine.clock
        )
        result = engine.step(s1_obs, slow)
        assert result.fallback_used is True
        assert result.output is not None
        assert result.timers.total == 370
        assert result.timers.total > engine.config.t_max

    def test_fallback_cold_start_is_medium(self, s1_obs, scripted):
        engine = Engine()
        slow = FaultInjectingBackend(
            scripted, FaultProfile(added_delay=250), engine.clock
        )
        result = engine.step(s1_obs, slow)
        assert result.output.criticality is Criticality.MEDIUM

    def test_fallback_uses_last_known_grade(self, s1_obs, scripted):
        engine = Engine()
        engine.step(s1_obs, scripted)  # high verdict arrives in time
        slow = FaultInjectingBackend(
            scripted, FaultProfile(added_delay=250), engine.clock
        )
        result = engine.step(s1_obs, slow)
        assert result.output.criticality is Criticality.HIGH
        assert result.output.recipients == recipients_for(Criticality.HIGH)

    def test_backend_error_absorbed_into_fallback(self, s1_obs):
        engine = Engine()
        result = engine.step(s1_obs, FailingBackend())
        assert result.fallback_used is True
        assert result.output is not None
        assert result.output.criticality is Criticality.MEDIUM

    def test_any_backend_exception_absorbed_into_fallback(self, s1_obs):
        class BuggyBackend:
            def __init__(self):
                self.errors = deque([ValueError("bad score"), KeyError("rule")])

            def assess(self, obs):
                raise self.errors.popleft()

        engine = Engine()
        backend = BuggyBackend()
        for _ in range(2):
            result = engine.step(s1_obs, backend)
            assert result.fallback_used is True
            assert result.record.fallback is True
            assert oracle_verify([result.record.to_wire()]) == []
        assert not backend.errors

    def test_fallback_output_satisfies_alarm_rule(self):
        for grade in (None, *Criticality):
            output = fallback_output(grade)
            assert output.alarm == (output.criticality is not Criticality.LOW)
            assert output.recipients == recipients_for(output.criticality)

    def test_slow_no_hazard_step_keeps_alarm_clear(self, empty_obs, scripted):
        engine = Engine()
        slow = FaultInjectingBackend(
            scripted, FaultProfile(added_delay=250), engine.clock
        )
        result = engine.step(empty_obs, slow)
        assert result.output is None
        assert result.fallback_used is False
        assert engine.alarm_latched is False
        assert result.record.criticality is None

    def test_outputs_are_enqueued(self, s1_obs, scripted):
        engine = Engine()
        result = engine.step(s1_obs, scripted)
        assert len(engine.queue) == 1
        assert engine.queue.pop() == result.output
        assert engine.queue.pop() is None

    def test_trace_record_fields(self, s1_obs, scripted):
        engine = Engine()
        result = engine.step(s1_obs, scripted, obs_id="case:0")
        record = result.record
        assert record.obs_id == "case:0"
        assert record.category is HazardCategory.SHARP_OBJECT
        assert record.criticality is Criticality.HIGH
        assert record.risk == record.tone
        assert record.t_total == 120
        assert record.recipients == (
            Channel.NEARBY, Channel.REMOTE, Channel.COORDINATION,
        )


class TestStepBranchesWithCommTime:
    """Each outcome of a step with a non-zero t_comm, on both clocks.

    Under the wall clock the stage advances are no-ops and t_llm is the
    measured time of the backend call, so totals are checked against the
    step's own timers; under the virtual clock they are exact.
    """

    TIMERS = StageTimers(t_camera=10, t_heatmap=15, t_llm=95, t_comm=5)

    @pytest.fixture(params=["virtual", "wall"])
    def make_engine(self, request):
        def make(t_max=200):
            clock = VirtualClock() if request.param == "virtual" else WallClock()
            return Engine(EngineConfig(t_max=t_max, timers=self.TIMERS), clock)
        return make

    @staticmethod
    def checked_step(engine, obs, backend):
        """One step, with the clock and timer checks every branch shares."""
        start = engine.clock.now
        result = engine.step(obs, backend)
        timers, record = result.timers, result.record
        if isinstance(engine.clock, VirtualClock):
            assert timers.t_llm == 95
            assert record.tick == start
            assert engine.clock.now == start + timers.total
        else:
            assert 0 <= timers.t_llm <= 10
            assert record.tick >= start
        assert (timers.t_camera, timers.t_heatmap) == (10, 15)
        assert record.t_total == timers.total
        return result

    def test_no_hazard_charges_no_comm_time(self, make_engine, s1_obs, empty_obs, scripted):
        engine = make_engine()
        self.checked_step(engine, s1_obs, scripted)
        result = self.checked_step(engine, empty_obs, scripted)
        assert result.timers.t_comm == 0
        assert result.record.t_total == 25 + result.timers.t_llm
        assert result.output is None and result.fallback_used is False
        assert result.record == TraceRecord(
            result.record.tick, "step-00001", None, None, None, None, None, None, None,
            None, False, (), result.record.t_total, False, None,
        )
        assert engine.alarm_latched is False
        assert engine.last_known_criticality is Criticality.HIGH

    def test_assembled_verdict(self, make_engine, s1_obs, scripted):
        engine = make_engine()
        result = self.checked_step(engine, s1_obs, scripted)
        output, record = result.output, result.record
        assert result.timers.t_comm == 5
        assert record.t_total == 30 + result.timers.t_llm
        assert result.fallback_used is False
        factors = scripted.assess(s1_obs).factors
        assert record == TraceRecord(
            record.tick, "step-00000", HazardCategory.SHARP_OBJECT,
            factors.criticality_level, factors.time_sensitivity, factors.feasibility,
            output.risk.value, Criticality.HIGH, output.message.tone,
            output.message.character, True,
            (Channel.NEARBY, Channel.REMOTE, Channel.COORDINATION), record.t_total,
            False, output.message.text,
        )
        assert engine.alarm_latched is True
        assert engine.last_known_criticality is Criticality.HIGH
        assert engine.queue.pop() is output

    def test_late_verdict_alerts_from_the_previous_grade(self, make_engine, s1_obs, s2_obs,
                                                         scripted):
        # With a 2.6 s budget every verdict is late: 2.5 s onboard plus
        # 0.5 s of t_comm exceed it on either clock.
        engine = make_engine(t_max=26)
        first = self.checked_step(engine, s2_obs, scripted)  # a Low verdict, late
        assert first.output is fallback_output(None)
        assert engine.last_known_criticality is Criticality.LOW
        result = self.checked_step(engine, s1_obs, scripted)  # a High verdict, late
        output, record = result.output, result.record
        assert result.fallback_used is True and output is fallback_output(Criticality.LOW)
        assert result.timers.t_comm == 5
        assert record.t_total == 30 + result.timers.t_llm > 26
        assert record == TraceRecord(
            record.tick, "step-00001", None, None, None, None, 2.0, Criticality.LOW,
            2.0, output.message.character, False, (Channel.NEARBY,), record.t_total,
            True, output.message.text,
        )
        assert engine.alarm_latched is False
        assert engine.last_known_criticality is Criticality.HIGH

    def test_backend_error_keeps_the_last_known_grade(self, make_engine, s1_obs, s2_obs,
                                                      scripted):
        engine = make_engine()
        self.checked_step(engine, s1_obs, scripted)  # High: latches the alarm
        self.checked_step(engine, s2_obs, scripted)  # Low: the last known grade
        assert engine.alarm_latched is False
        result = self.checked_step(engine, s1_obs, FailingBackend())
        output, record = result.output, result.record
        assert result.fallback_used is True and output is fallback_output(Criticality.LOW)
        assert result.timers.t_comm == 5
        assert record.t_total == 30 + result.timers.t_llm
        assert record == TraceRecord(
            record.tick, "step-00002", None, None, None, None, 2.0, Criticality.LOW,
            2.0, output.message.character, False, (Channel.NEARBY,), record.t_total,
            True, output.message.text,
        )
        assert engine.alarm_latched is False
        assert engine.last_known_criticality is Criticality.LOW


class TestEngineConfiguration:
    def test_custom_template_table_used(self, s2_obs, scripted):
        from hazcom import TemplateTable

        table = TemplateTable.parse(
            "\n".join(
                f"{category.value}|{grade.value}|custom {grade.value} note "
                "for the {location}"
                for category in HazardCategory
                for grade in Criticality
            )
        )
        engine = Engine(templates=table)
        result = engine.step(s2_obs, scripted)
        assert result.output.message.text.startswith("custom Low note")

    def test_wall_clock_smoke(self, s1_obs, scripted):
        engine = Engine(clock=WallClock())
        result = engine.step(s1_obs, scripted)
        assert result.output is not None
        # live mode: simulated stage advances are no-ops, the model stage
        # is measured from real elapsed time
        assert result.timers.t_llm >= 0


class TestFallbackTotality:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=400), st.data())
    def test_every_step_yields_output_or_no_hazard_record(self, delay, data):
        engine = Engine()
        profile = FaultProfile(
            added_delay=delay,
            failure_rate=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
            seed=data.draw(st.integers(0, 1000)),
        )
        backend = FaultInjectingBackend(ScriptedBackend(), profile, engine.clock)
        observations = [
            make_obs([("knife", "on-floor")]),
            make_obs([]),
            make_obs([("trash", "overflowing")]),
        ]
        for obs in observations:
            result = engine.step(obs, backend)
            has_output = result.output is not None
            explicit_no_hazard = result.record.criticality is None
            assert has_output or explicit_no_hazard
            if result.fallback_used:
                assert result.output is not None
                # fallback only fires on a budget breach or a backend failure
                assert (
                    result.timers.total > engine.config.t_max
                    or profile.failure_rate > 0
                )


class TestPendingQueue:
    def _output(self, rho, category=HazardCategory.WASTE):
        return assemble_output(
            category, RiskScore(rho), EnvContext(LocationType.CORRIDOR)
        )

    def test_low_then_high_dequeues_high_first(self):
        queue = PendingQueue()
        low = self._output(1.0)
        high = self._output(9.0)
        queue.push(low)
        queue.push(high)
        assert queue.pop() == high
        assert queue.pop() == low

    def test_equal_grade_higher_score_first(self):
        queue = PendingQueue()
        six = self._output(6.0)
        seven = self._output(7.0)
        queue.push(six)
        queue.push(seven)
        assert queue.pop() == seven

    def test_equal_grade_and_score_fifo(self):
        queue = PendingQueue()
        first = self._output(6.0, HazardCategory.WASTE)
        second = self._output(6.0, HazardCategory.UNATTENDED_ITEM)
        queue.push(first)
        queue.push(second)
        assert queue.pop() == first
        assert queue.pop() == second

    def test_exhaustive_permutations_match_sort_oracle(self):
        import itertools

        scores = [1.0, 6.0, 7.0, 9.0]
        outputs = [self._output(rho) for rho in scores]
        for perm in itertools.permutations(range(4)):
            queue = PendingQueue()
            arrival = {}
            for order, index in enumerate(perm):
                queue.push(outputs[index])
                arrival[id(outputs[index])] = order
            # Independent oracle: a stable full sort over the same keys.
            expected = sorted(
                (outputs[i] for i in perm),
                key=lambda o: (-o.criticality.rank, -o.risk.value, arrival[id(o)]),
            )
            drained = []
            while (item := queue.pop()) is not None:
                drained.append(item)
            assert drained == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=20))
    def test_random_sequences_match_sort_oracle(self, scores):
        queue = PendingQueue()
        outputs = []
        for arrival, rho in enumerate(scores):
            output = self._output(rho)
            outputs.append((arrival, output))
            queue.push(output)
        expected = [
            output
            for _, output in sorted(
                outputs,
                key=lambda pair: (
                    -pair[1].criticality.rank, -pair[1].risk.value, pair[0],
                ),
            )
        ]
        drained = []
        while (item := queue.pop()) is not None:
            drained.append(item)
        assert drained == expected


class TestTimeToFirstAlert:
    def _drain_position(self, queue_pops, target):
        for position, item in enumerate(queue_pops):
            if item is target:
                return position
        raise AssertionError("target never dispatched")

    def test_priority_beats_fifo_for_late_high_event(self):
        rng = random.Random(42)
        for _ in range(200):
            j = rng.randint(1, 6)
            lows = [
                assemble_output(
                    HazardCategory.WASTE,
                    RiskScore(rng.uniform(0, 4.99)),
                    EnvContext(LocationType.CORRIDOR),
                )
                for _ in range(j)
            ]
            high = assemble_output(
                HazardCategory.SHARP_OBJECT,
                RiskScore(rng.uniform(8, 10)),
                EnvContext(LocationType.CORRIDOR),
            )
            queue = PendingQueue()
            fifo = deque()
            for low in lows:
                queue.push(low)
                fifo.append(low)
            queue.push(high)
            fifo.append(high)

            priority_order = []
            while (item := queue.pop()) is not None:
                priority_order.append(item)
            fifo_order = list(fifo)
            assert self._drain_position(priority_order, high) < self._drain_position(
                fifo_order, high
            )


class TestTraceIO:
    def test_round_trip(self, tmp_path, s1_obs, s2_obs, empty_obs, scripted):
        engine = Engine()
        records = [
            engine.step(obs, scripted).record
            for obs in (s1_obs, empty_obs, s2_obs)
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        assert read_trace(path) == records

    def test_records_are_immutable_hashable_tuples(self, s1_obs, empty_obs, scripted):
        engine = Engine()
        records = [engine.step(obs, scripted).record for obs in (s1_obs, empty_obs)]
        for record in records:
            with pytest.raises(AttributeError):
                record.alarm = not record.alarm
            assert not hasattr(record, "__dict__")
            assert {record: 1}[record] == 1
            # A record is a named tuple, so it equals the plain tuple of its fields.
            assert record == tuple(getattr(record, f) for f in TraceRecord._fields)
        assert TraceRecord._fields == (
            "tick", "obs_id", "category", "level", "time_sensitivity", "feasibility",
            "risk", "criticality", "tone", "character", "alarm", "recipients",
            "t_total", "fallback", "text",
        )

    def test_append_only(self, tmp_path, s1_obs, scripted):
        engine = Engine()
        first = engine.step(s1_obs, scripted).record
        second = engine.step(s1_obs, scripted).record
        path = tmp_path / "trace.jsonl"
        write_trace(path, [first])
        write_trace(path, [second])
        assert read_trace(path) == [first, second]

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"tick": 0}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="trace.jsonl:1"):
            read_trace(path)

    def test_deeply_nested_line_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="trace.jsonl:1: not JSON"):
            read_trace(path)

    @pytest.mark.parametrize("field, value, message", [
        ("recipients", {"nearby": 1, "remote": 2, "coordination": 3}, "'recipients' must be a list"),
        ("text", 7, "'text' must be a string"),
    ], ids=["recipients-object", "text-number"])
    def test_malformed_field_raises_with_location(
        self, tmp_path, s1_obs, scripted, field, value, message
    ):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Engine().step(s1_obs, scripted).record])
        record = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(record, **{field: value})) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"trace.jsonl:1: {message}"):
            read_trace(path)

    _ENUM_LABELS = {
        "category": "HazardCategory 'Bogus' in {where}; expected one of: SharpObject, "
                    "PersonDown, Distress, SuspiciousItem, Waste, UnattendedItem",
        "d": "Criticality 'Bogus' in {where}; expected one of: Low, Medium, High",
        "tau": "TimeSensitivity 'Bogus' in {where}; expected one of: Immediate, Soon, NearFuture",
        "phi": "Feasibility 'Bogus' in {where}; expected one of: Robot, PoC, HelpNeeded",
        "k": "Criticality 'Bogus' in {where}; expected one of: Low, Medium, High",
        "chi": "Character 'Bogus' in {where}; expected one of: inquiry, alert, urgent",
    }

    @pytest.mark.parametrize("change, message", [
        (lambda r: [r], "not an object"),
        (lambda r: {k: v for k, v in r.items() if k not in ("tick", "chi", "fallback")},
         "missing fields ['chi', 'fallback', 'tick']"),
        *[
            (lambda r, f=field, v=label: dict(r, **{f: v}),
             "unknown " + expected.replace("'Bogus'", repr(label)))
            for field, expected in _ENUM_LABELS.items()
            for label in ("Bogus", ["Bogus"])
        ],
        (lambda r: dict(r, recipients=["nearby", "Bogus"]),
         "unknown Channel 'Bogus' in {where}; expected one of: nearby, remote, coordination"),
        (lambda r: dict(r, recipients=[["nearby"]]),
         "unknown Channel ['nearby'] in {where}; expected one of: nearby, remote, coordination"),
        (lambda r: dict(r, rho="high"), "could not convert string to float: 'high'"),
        (lambda r: dict(r, gamma="high"), "could not convert string to float: 'high'"),
        (lambda r: dict(r, tick=None),
         "int() argument must be a string, a bytes-like object or a real number, "
         "not 'NoneType'"),
    ], ids=[
        "not-object", "missing-fields",
        *[f"{field}-{kind}" for field in _ENUM_LABELS for kind in ("unknown", "list")],
        "recipient-unknown", "recipient-list", "rho-string", "gamma-string", "tick-null",
    ])
    def test_from_wire_error_messages(self, tmp_path, s1_obs, scripted, change, message):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Engine().step(s1_obs, scripted).record])
        record = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(change(record)) + "\n", encoding="utf-8")
        where = f"{path}:1"
        with pytest.raises(ValidationError) as excinfo:
            read_trace(path)
        assert str(excinfo.value) == f"{where}: " + message.format(where=where)

    @pytest.mark.parametrize("field, value, message", [
        ("alarm", "no", "'alarm' must be true or false, got 'no'"),
        ("fallback", "false", "'fallback' must be true or false, got 'false'"),
        ("tick", 1.7, "'tick' must be an integer, got 1.7"),
        ("tick", True, "'tick' must be an integer, got True"),
        ("t_total", "120", "'t_total' must be an integer, got '120'"),
        ("obs_id", 5, "'obs_id' must be a string, got 5"),
        ("rho", True, "'rho' must be a number or null, got True"),
        ("gamma", False, "'gamma' must be a number or null, got False"),
    ], ids=[
        "alarm-string", "fallback-string", "tick-float", "tick-bool", "t_total-string",
        "obs_id-number", "rho-bool", "gamma-bool",
    ])
    def test_scalar_of_wrong_type_rejected(
        self, tmp_path, s1_obs, scripted, field, value, message
    ):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Engine().step(s1_obs, scripted).record])
        record = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(record, **{field: value})) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            read_trace(path)
        assert str(excinfo.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("field, value", [("tick", float("inf")), ("rho", 10**400)])
    def test_overflowing_number_raises_with_location(
        self, tmp_path, s1_obs, scripted, field, value
    ):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Engine().step(s1_obs, scripted).record])
        record = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(record, **{field: value})) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="trace.jsonl:1"):
            read_trace(path)
