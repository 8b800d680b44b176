import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hazcom import (
    Channel,
    ConfigurationError,
    Criticality,
    Feasibility,
    HazardCategory,
    LossAccount,
    StepTruth,
    SubMetrics,
    TimeSensitivity,
    TraceRecord,
    ValidationError,
    builtin_suite,
    coordination_success,
    detection_accuracy,
    effectiveness,
    latency_compliance,
    load_scenarios,
    message_alignment,
    objective_loss,
    save_scenarios,
)
from hazcom.core import band_risk, character_for, recipients_for, RiskScore, CHANNEL_ORDER
from hazcom.dispatch import DeliveryRecord

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def truth_for(category, grade, rho=None):
    tau = TimeSensitivity.IMMEDIATE if grade is Criticality.HIGH else TimeSensitivity.SOON
    phi = Feasibility.HELP_NEEDED if grade is Criticality.HIGH else Feasibility.POC
    return StepTruth(category, grade, tau, phi, rho)


def hazard_record(rho, category=HazardCategory.WASTE, tick=0, t_total=120,
                  alarm=None, fallback=False):
    grade = band_risk(RiskScore(rho))
    return TraceRecord(
        tick=tick,
        obs_id=f"t{tick}",
        category=category,
        level=grade if not fallback else None,
        time_sensitivity=None if fallback else TimeSensitivity.SOON,
        feasibility=None if fallback else Feasibility.POC,
        risk=rho,
        criticality=grade,
        tone=rho,
        character=character_for(grade),
        alarm=alarm if alarm is not None else (grade is not Criticality.LOW),
        recipients=tuple(c for c in CHANNEL_ORDER if c in recipients_for(grade)),
        t_total=t_total,
        fallback=fallback,
        text="synthetic alert text",
    )


def no_hazard_record(tick=0, t_total=120):
    return TraceRecord(
        tick=tick, obs_id=f"t{tick}", category=None, level=None,
        time_sensitivity=None, feasibility=None, risk=None, criticality=None,
        tone=None, character=None, alarm=False, recipients=(), t_total=t_total,
        fallback=False, text=None,
    )


def good_deliveries(record):
    if record.criticality is None:
        return []
    return [
        DeliveryRecord(channel, record.tick, True, "ok")
        for channel in record.recipients
    ]


class TestStepTruth:
    def test_incoherent_level_vs_grade_rejected(self, tmp_path):
        # A truth has one grade; a scenario file that writes its level `d`
        # apart from its criticality `k` is refused by the file decoder.
        path = tmp_path / "suite.json"
        save_scenarios(path, builtin_suite())
        document = json.loads(path.read_text())
        truth = document["scenarios"][0]["steps"][1]["truth"]
        truth["d"] = "Low"          # k and rho stay High
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="incoherent"):
            load_scenarios(path)

    def test_reference_score_must_band_to_grade(self):
        with pytest.raises(ValidationError, match="bands to"):
            truth_for(HazardCategory.WASTE, Criticality.LOW, rho=9.0)


class TestEffectiveness:
    def test_all_ones_is_exactly_one(self):
        sub = SubMetrics(1.0, 1.0, 1.0, 1.0)
        assert effectiveness(sub, (0.25, 0.25, 0.25, 0.25)) == 1.0

    def test_all_zero_means_inactive(self):
        sub = SubMetrics(0.0, 0.0, 0.0, 0.0)
        assert effectiveness(sub, (0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_reported_submetrics_hand_arithmetic(self):
        # Oracle: 0.25 * (0.8 + 0.82 + 1.0 + 0.4) = 0.755
        sub = SubMetrics(0.8, 0.82, 1.0, 0.4)
        value = effectiveness(sub, (0.25, 0.25, 0.25, 0.25))
        assert abs(value - 0.755) <= 1e-12
        assert abs(value - 0.25 * (0.8 + 0.82 + 1.0 + 0.4)) <= 1e-12

    def test_weight_validation(self):
        sub = SubMetrics(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            effectiveness(sub, (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValidationError):
            effectiveness(sub, (0.5, 0.5))
        with pytest.raises(ValidationError):
            effectiveness(sub, (-0.5, 0.5, 0.5, 0.5))

    @given(unit, unit, unit, unit, unit)
    def test_monotone_in_each_submetric(self, a, b, c, d, bump):
        weights = (0.25, 0.25, 0.25, 0.25)
        base = effectiveness(SubMetrics(a, b, c, d), weights)
        raised = effectiveness(SubMetrics(min(1.0, a + bump), b, c, d), weights)
        assert raised >= base

    @given(unit, unit, unit, unit)
    def test_bounded(self, a, b, c, d):
        value = effectiveness(SubMetrics(a, b, c, d), (0.25, 0.25, 0.25, 0.25))
        assert 0.0 <= value <= 1.0

    def test_submetrics_clamped(self):
        sub = SubMetrics(1.5, -0.5, 0.5, 0.5)
        assert sub.eps_det == 1.0
        assert sub.eps_msg == 0.0


class TestLatencyCompliance:
    def test_measured_profile(self):
        assert abs(latency_compliance(12.0, 20.0) - 0.4) <= 1e-9

    def test_zero_latency_is_perfect(self):
        assert latency_compliance(0.0, 20.0) == 1.0

    def test_overrun_clamps_to_zero(self):
        # Raw value would be -0.25.
        assert latency_compliance(25.0, 20.0) == 0.0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError):
            latency_compliance(5.0, 0.0)


class TestDetectionAccuracy:
    def test_perfect_trace(self):
        trace = [hazard_record(9.0, HazardCategory.SHARP_OBJECT), no_hazard_record(1)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH), None]
        assert detection_accuracy(trace, truth) == 1.0

    def test_empty_trace_is_an_error(self):
        with pytest.raises(ValidationError):
            detection_accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            detection_accuracy([no_hazard_record()], [])

    def test_grade_mismatch_counts_zero(self):
        trace = [hazard_record(9.0, HazardCategory.SHARP_OBJECT)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.LOW)]
        assert detection_accuracy(trace, truth) == 0.0

    def test_false_alarm_counts_zero(self):
        trace = [hazard_record(9.0)]
        assert detection_accuracy(trace, [None]) == 0.0

    def test_miss_counts_zero(self):
        trace = [no_hazard_record()]
        truth = [truth_for(HazardCategory.WASTE, Criticality.LOW)]
        assert detection_accuracy(trace, truth) == 0.0


class TestMessageAlignment:
    def test_perfect(self):
        trace = [hazard_record(9.0, HazardCategory.SHARP_OBJECT)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH)]
        assert message_alignment(trace, truth) == 1.0

    def test_one_of_five_wrong(self):
        trace = [hazard_record(9.0) for _ in range(4)] + [hazard_record(6.0)]
        truth = [truth_for(HazardCategory.WASTE, Criticality.HIGH)] * 5
        assert message_alignment(trace, truth) == 0.8

    def test_category_mismatch_does_not_break_alignment(self):
        # Alignment is about tone band and character, not the label.
        trace = [hazard_record(9.0, HazardCategory.WASTE)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH)]
        assert message_alignment(trace, truth) == 1.0

    def test_missed_hazard_is_misaligned(self):
        trace = [no_hazard_record()]
        truth = [truth_for(HazardCategory.WASTE, Criticality.LOW)]
        assert message_alignment(trace, truth) == 0.0

    def test_vacuous_when_no_hazards(self):
        assert message_alignment([no_hazard_record()], [None]) == 1.0


class TestCoordinationSuccess:
    def test_all_memory_deliveries_succeed(self):
        trace = [hazard_record(9.0), no_hazard_record(1), hazard_record(2.0, tick=2)]
        deliveries = [good_deliveries(r) for r in trace]
        assert coordination_success(deliveries, trace) == 1.0

    def test_one_failed_remote_among_ten(self):
        trace = [hazard_record(6.0, tick=i) for i in range(10)]
        deliveries = [good_deliveries(r) for r in trace]
        deliveries[3] = [
            DeliveryRecord(Channel.NEARBY, 3, True, "ok"),
            DeliveryRecord(Channel.REMOTE, 3, False, "unreachable"),
        ]
        assert coordination_success(deliveries, trace) == 0.9

    def test_extra_channel_scores_zero(self):
        trace = [hazard_record(2.0)]
        deliveries = [[
            DeliveryRecord(Channel.NEARBY, 0, True, "ok"),
            DeliveryRecord(Channel.REMOTE, 0, True, "not mandated"),
        ]]
        assert coordination_success(deliveries, trace) == 0.0

    def test_orphan_records_rejected(self):
        trace = [no_hazard_record()]
        deliveries = [[DeliveryRecord(Channel.NEARBY, 0, True, "ok")]]
        with pytest.raises(ValidationError, match="no output"):
            coordination_success(deliveries, trace)

    def test_vacuous_when_no_outputs(self):
        trace = [no_hazard_record()]
        assert coordination_success([[]], trace) == 1.0


class TestObjectiveLoss:
    def test_perfect_run_is_zero(self):
        trace = [hazard_record(9.0, HazardCategory.SHARP_OBJECT), no_hazard_record(1)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH), None]
        loss = objective_loss(trace, truth, 1.0, t_max=200)
        assert loss.l_hazard == 0.0
        assert loss.l_fatigue == 0.0
        assert loss.total == 0.0

    def test_alarm_on_truth_low_step_is_fatigue(self):
        # The object baseline firing High on a kitchen knife.
        trace = [hazard_record(9.0, HazardCategory.SHARP_OBJECT)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.LOW)]
        loss = objective_loss(trace, truth, 1.0, t_max=200)
        assert loss.l_fatigue >= 1.0

    def test_missed_high_costs_four(self):
        trace = [no_hazard_record()]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH)]
        loss = objective_loss(trace, truth, 1.0, t_max=200)
        assert loss.l_hazard == 4.0

    def test_late_delivery_counts_as_missed(self):
        trace = [hazard_record(9.0, HazardCategory.SHARP_OBJECT, t_total=370)]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH)]
        loss = objective_loss(trace, truth, 1.0, t_max=200)
        assert loss.l_hazard == 4.0

    def test_severity_weights(self):
        truth_grades = [Criticality.LOW, Criticality.MEDIUM, Criticality.HIGH]
        trace = [no_hazard_record(tick=i) for i in range(3)]
        truth = [truth_for(HazardCategory.WASTE, g) for g in truth_grades]
        loss = objective_loss(trace, truth, 1.0, t_max=200)
        assert loss.l_hazard == 1.0 + 2.0 + 4.0

    def test_repeated_identical_alerts_within_window(self):
        trace = [
            hazard_record(9.0, HazardCategory.SHARP_OBJECT, tick=0),
            hazard_record(9.0, HazardCategory.SHARP_OBJECT, tick=30),
            hazard_record(9.0, HazardCategory.SHARP_OBJECT, tick=300),
        ]
        truth = [truth_for(HazardCategory.SHARP_OBJECT, Criticality.HIGH)] * 3
        loss = objective_loss(trace, truth, 1.0, t_max=400, suppression_window=50)
        assert loss.l_fatigue == 1.0  # only the tick-30 repeat is inside the window

    def test_decomposition_exact(self):
        account = LossAccount(l_hazard=5.0, l_fatigue=3.0, fatigue_lambda=2.0)
        assert account.total == 5.0 + 2.0 * 3.0

    @given(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
    )
    def test_decomposition_property(self, hazard, fatigue, lam):
        account = LossAccount(hazard, fatigue, lam)
        assert account.total == hazard + lam * fatigue

    def test_lambda_scales_total(self):
        trace = [hazard_record(9.0)]
        truth = [truth_for(HazardCategory.WASTE, Criticality.LOW)]
        cheap = objective_loss(trace, truth, 0.5, t_max=200)
        dear = objective_loss(trace, truth, 2.0, t_max=200)
        assert dear.total > cheap.total
