import random

import pytest

from hazcom import (
    ScriptedBackend,
    ValidationError,
    builtin_suite,
    oracle_verify,
    run_suite,
)


def clean_records():
    """Wire-level records from a full run of the builtin suite."""
    report = run_suite(builtin_suite(), {"scripted": ScriptedBackend()})
    records = []
    for run in report.results["scripted"].runs.values():
        records.extend(record.to_wire() for record in run.trace)
    return records


CHI_VALUES = ["inquiry", "alert", "urgent"]
K_VALUES = ["Low", "Medium", "High"]
RECIPIENT_SETS = [
    ["nearby"],
    ["nearby", "remote"],
    ["nearby", "remote", "coordination"],
]


def corrupt(record, field, rng):
    """Flip one field to a different, policy-breaking value."""
    tampered = dict(record)
    if field == "alarm":
        tampered["alarm"] = not record["alarm"]
    elif field == "recipients":
        options = [r for r in RECIPIENT_SETS if set(r) != set(record["recipients"])]
        tampered["recipients"] = rng.choice(options)
    elif field == "chi":
        options = [c for c in CHI_VALUES if c != record["chi"]]
        tampered["chi"] = rng.choice(options)
    elif field == "gamma":
        tampered["gamma"] = (record["gamma"] + 3.0) % 10.0
    elif field == "k":
        options = [k for k in K_VALUES if k != record["k"]]
        tampered["k"] = rng.choice(options)
    else:
        raise AssertionError(field)
    return tampered


class TestCleanTraces:
    def test_engine_traces_are_compliant(self):
        assert oracle_verify(clean_records()) == []

    def test_every_backend_trace_is_compliant(self):
        from hazcom import LocationBaselineBackend, ObjectBaselineBackend

        report = run_suite(
            builtin_suite(),
            {
                "scripted": ScriptedBackend(),
                "object-baseline": ObjectBaselineBackend(),
                "location-baseline": LocationBaselineBackend(),
            },
        )
        for result in report.results.values():
            assert result.violations == []


class TestPlantedCorruptions:
    def test_alarm_flip_on_low_step_detected(self):
        records = clean_records()
        target = next(r for r in records if r["k"] == "Low")
        target["alarm"] = True
        violations = oracle_verify(records)
        assert len(violations) == 1
        assert violations[0].field == "alarm"

    def test_recipient_corruption_names_routing_rule(self):
        records = clean_records()
        target = next(r for r in records if r["k"] == "High")
        target["recipients"] = ["nearby"]
        violations = oracle_verify(records)
        assert len(violations) == 1
        assert violations[0].rule == "recipient-routing rule"

    def test_character_corruption_detected(self):
        records = clean_records()
        target = next(r for r in records if r["k"] == "Medium")
        target["chi"] = "urgent"
        assert any(v.field == "chi" for v in oracle_verify(records))

    def test_tone_corruption_detected(self):
        records = clean_records()
        target = next(r for r in records if r["k"] == "High")
        target["gamma"] = 4.0
        assert any(v.field == "gamma" for v in oracle_verify(records))

    def test_grade_corruption_detected(self):
        records = clean_records()
        target = next(r for r in records if r["k"] == "High")
        target["k"] = "Low"
        violations = oracle_verify(records)
        fields = {v.field for v in violations}
        assert "k" in fields

    def test_no_hazard_record_with_alarm_detected(self):
        records = clean_records()
        target = next(r for r in records if r["k"] is None)
        target["alarm"] = True
        assert any(v.field == "alarm" for v in oracle_verify(records))

    def test_out_of_range_score_reported(self):
        records = clean_records()
        target = next(r for r in records if r["k"] is not None)
        target["rho"] = 12.0
        assert any(v.rule == "score-range rule" for v in oracle_verify(records))


class TestWireTypes:
    @pytest.mark.parametrize("field, value", [
        ("alarm", "yes"), ("alarm", 1), ("tick", 1.7), ("t_total", "120"),
        ("fallback", "no"), ("obs_id", 5),
    ])
    def test_scalar_of_wrong_type_is_a_violation(self, field, value):
        records = clean_records()
        target = next(r for r in records if r["k"] == "High")
        target[field] = value
        violations = oracle_verify(records)
        assert [(v.field, v.rule) for v in violations] == [(field, "wire-type rule")]
        assert f"got {value!r}" in violations[0].detail

    def test_non_numeric_score_is_a_violation(self):
        # A hazard record whose score is not a number cannot be banded; it is
        # reported, and the records after it are still checked.
        for rho, wire_type_violation in (("nine", True), (True, True), (None, False)):
            records = clean_records()
            hazards = [r for r in records if r["k"] is not None]
            hazards[0]["rho"] = rho
            hazards[1]["alarm"] = not hazards[1]["alarm"]
            violations = [(v.record_index, v.field, v.rule) for v in oracle_verify(records)]
            first, second = records.index(hazards[0]), records.index(hazards[1])
            assert violations == [
                *([(first, "rho", "wire-type rule")] if wire_type_violation else []),
                (first, "rho", "score-range rule"),
                (second, "alarm", "alarm rule"),
            ]


class TestMalformedTraces:
    def test_missing_fields_raise(self):
        with pytest.raises(ValidationError, match="missing"):
            oracle_verify([{"tick": 0}])

    def test_non_object_record_raises(self):
        with pytest.raises(ValidationError, match="not an object"):
            oracle_verify(["nope"])

    def test_non_string_recipient_raises(self):
        records = clean_records()
        target = next(r for r in records if r["k"] is not None)
        target["recipients"] = [{}]
        with pytest.raises(ValidationError, match="recipients"):
            oracle_verify(records)


class TestFuzzCampaign:
    def test_thousand_single_field_corruptions_all_detected(self):
        base = clean_records()
        hazard_indices = [i for i, r in enumerate(base) if r["k"] is not None]
        rng = random.Random(2024)
        fields = ["alarm", "recipients", "chi", "gamma", "k"]
        detected = 0
        for _ in range(1000):
            records = [dict(r) for r in base]
            index = rng.choice(hazard_indices)
            field = rng.choice(fields)
            records[index] = corrupt(records[index], field, rng)
            if oracle_verify(records):
                detected += 1
        assert detected == 1000
