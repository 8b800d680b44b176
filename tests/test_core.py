import copy
import json
import pickle
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hazcom import (
    Channel,
    Character,
    CommOutput,
    ConfigurationError,
    Criticality,
    CrowdDensity,
    EnvContext,
    HazardCategory,
    LocationType,
    MessageTuple,
    RiskScore,
    TemplateTable,
    ValidationError,
    alarm_for,
    assemble_output,
    band_risk,
    character_for,
    compose_message,
    recipients_for,
    tone_for,
)
from hazcom import core
from hazcom.core import (
    CHANNEL_ORDER,
    RECIPIENTS_IN_ORDER,
    _assembled,
    builtin_templates,
    enum_from_label,
    tone_in_band,
)
from hazcom.dispatch import comm_output_wire

risk_values = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def corridor(crowd=CrowdDensity.NONE):
    return EnvContext(LocationType.CORRIDOR, crowd)


class TestRiskScore:
    def test_accepts_bounds(self):
        assert RiskScore(0).value == 0.0
        assert RiskScore(10).value == 10.0

    @pytest.mark.parametrize("bad", [-0.01, 10.01, 42, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            RiskScore(bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            RiskScore("5")
        with pytest.raises(ValidationError):
            RiskScore(True)


class TestBanding:
    @pytest.mark.parametrize(
        "rho,expected",
        [
            (3, Criticality.LOW),
            (0, Criticality.LOW),
            (10, Criticality.HIGH),
            (5, Criticality.MEDIUM),  # the alarm threshold
            (4.5, Criticality.LOW),
            (7.5, Criticality.MEDIUM),
            (4.99, Criticality.LOW),
            (7.99, Criticality.MEDIUM),
            (8.0, Criticality.HIGH),
        ],
    )
    def test_band_examples(self, rho, expected):
        assert band_risk(RiskScore(rho)) is expected

    def test_band_totality_sweep(self):
        # Every hundredth of the scale lands in exactly one band.
        for i in range(0, 1001):
            rho = i / 100
            band = band_risk(RiskScore(rho))
            assert band in (Criticality.LOW, Criticality.MEDIUM, Criticality.HIGH)

    @given(risk_values)
    def test_alarm_equivalence(self, rho):
        assert alarm_for(band_risk(RiskScore(rho))) == (rho >= 5.0)

    @given(risk_values)
    def test_tone_band_consistency(self, rho):
        score = RiskScore(rho)
        assert tone_in_band(tone_for(score), band_risk(score))


class TestTone:
    @pytest.mark.parametrize("rho", [9, 0, 5, 3.25])
    def test_tone_equals_risk(self, rho):
        assert tone_for(RiskScore(rho)) == rho

    def test_threshold_tone_in_medium_band(self):
        assert tone_in_band(tone_for(RiskScore(5)), Criticality.MEDIUM)

    def test_top_of_scale_in_high_band(self):
        assert tone_in_band(10.0, Criticality.HIGH)
        assert not tone_in_band(10.0, Criticality.MEDIUM)


class TestCharacterAlarmRecipients:
    def test_character_mapping(self):
        assert character_for(Criticality.LOW) is Character.INQUIRY
        assert character_for(Criticality.MEDIUM) is Character.ALERT
        assert character_for(Criticality.HIGH) is Character.URGENT

    def test_character_bijection(self):
        images = {character_for(k) for k in Criticality}
        assert images == set(Character)

    def test_alarm_mapping(self):
        assert alarm_for(Criticality.LOW) is False
        assert alarm_for(Criticality.MEDIUM) is True
        assert alarm_for(Criticality.HIGH) is True

    def test_recipient_sets(self):
        assert recipients_for(Criticality.LOW) == {Channel.NEARBY}
        assert recipients_for(Criticality.MEDIUM) == {Channel.NEARBY, Channel.REMOTE}
        assert recipients_for(Criticality.HIGH) == {
            Channel.NEARBY, Channel.REMOTE, Channel.COORDINATION,
        }

    def test_recipients_in_order_are_the_sets_in_channel_order(self):
        for grade in Criticality:
            ordered = RECIPIENTS_IN_ORDER[grade]
            assert set(ordered) == recipients_for(grade)
            assert list(ordered) == [c for c in CHANNEL_ORDER if c in ordered]

    def test_recipient_monotonicity(self):
        grades = sorted(Criticality, key=lambda k: k.rank)
        for lower in grades:
            for higher in grades:
                if lower <= higher:
                    assert recipients_for(lower) <= recipients_for(higher)

    def test_criticality_total_order(self):
        assert Criticality.LOW < Criticality.MEDIUM < Criticality.HIGH
        assert sorted(
            [Criticality.HIGH, Criticality.LOW, Criticality.MEDIUM]
        ) == [Criticality.LOW, Criticality.MEDIUM, Criticality.HIGH]


class TestComposeMessage:
    def test_high_sharp_object_has_instruction_and_alarm(self):
        text = compose_message(
            HazardCategory.SHARP_OBJECT, Criticality.HIGH, corridor()
        )
        assert "corridor" in text
        assert "alarm" in text.lower()
        assert text.startswith("Urgent")

    def test_low_sharp_object_is_acknowledgment(self):
        text = compose_message(
            HazardCategory.SHARP_OBJECT, Criticality.LOW,
            EnvContext(LocationType.KITCHEN),
        )
        assert "kitchen" in text
        assert "alarm" not in text.lower()

    def test_low_waste_is_maintenance_text(self):
        text = compose_message(HazardCategory.WASTE, Criticality.LOW, corridor())
        assert "maintenance" in text.lower()
        assert "corridor" in text

    def test_every_pair_has_a_template(self):
        for category in HazardCategory:
            for criticality in Criticality:
                text = compose_message(category, criticality, corridor())
                assert text

    def test_missing_template_names_the_pair(self):
        table = TemplateTable.parse("Waste|Low|waste note at {location}")
        with pytest.raises(ConfigurationError, match="SharpObject, High"):
            compose_message(
                HazardCategory.SHARP_OBJECT, Criticality.HIGH, corridor(), table
            )


class TestTemplateTable:
    def test_parse_and_lookup(self):
        table = TemplateTable.parse(
            "# comment\n\nWaste|Low|cleanup at the {location} please\n"
        )
        assert table.template_for(HazardCategory.WASTE, Criticality.LOW) == (
            "cleanup at the {location} please"
        )

    def test_parse_rejects_bad_field_count(self):
        with pytest.raises(ConfigurationError, match="1"):
            TemplateTable.parse("Waste|Low")

    def test_parse_rejects_unknown_enum(self):
        with pytest.raises(ConfigurationError, match="Sludge"):
            TemplateTable.parse("Sludge|Low|x {location}")

    def test_parse_rejects_missing_placeholder(self):
        with pytest.raises(ConfigurationError, match="location"):
            TemplateTable.parse("Waste|Low|static text")

    def test_parse_rejects_duplicates(self):
        text = "Waste|Low|a {location}\nWaste|Low|b {location}\n"
        with pytest.raises(ConfigurationError, match="duplicate"):
            TemplateTable.parse(text)

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "templates.txt"
        path.write_text("Waste|Low|cleanup at the {location}\n", encoding="utf-8")
        table = TemplateTable.load(path)
        assert (HazardCategory.WASTE, Criticality.LOW) in table.entries

    def test_entries_are_a_read_only_copy(self):
        entries = {(HazardCategory.WASTE, Criticality.LOW): "cleanup at the {location}"}
        table = TemplateTable(entries)
        entries[(HazardCategory.WASTE, Criticality.LOW)] = "changed at the {location}"
        assert table.template_for(HazardCategory.WASTE, Criticality.LOW) == (
            "cleanup at the {location}"
        )
        with pytest.raises(TypeError):
            table.entries[(HazardCategory.WASTE, Criticality.HIGH)] = "x {location}"

    def test_builtin_covers_all_pairs(self):
        table = builtin_templates()
        assert len(table.entries) == len(HazardCategory) * len(Criticality)


class TestCommOutputInvariants:
    def test_alarm_must_match_criticality(self):
        message = MessageTuple("text", 2.0, Character.INQUIRY)
        with pytest.raises(ValidationError, match="alarm"):
            CommOutput(
                message=message,
                recipients=recipients_for(Criticality.LOW),
                alarm=True,
                criticality=Criticality.LOW,
                risk=RiskScore(2.0),
            )

    def test_recipients_must_match_criticality(self):
        message = MessageTuple("text", 9.0, Character.URGENT)
        with pytest.raises(ValidationError, match="recipients"):
            CommOutput(
                message=message,
                recipients=frozenset({Channel.NEARBY}),
                alarm=True,
                criticality=Criticality.HIGH,
                risk=RiskScore(9.0),
            )

    def test_tone_must_sit_in_band(self):
        message = MessageTuple("text", 2.0, Character.URGENT)
        with pytest.raises(ValidationError, match="tone"):
            CommOutput(
                message=message,
                recipients=recipients_for(Criticality.HIGH),
                alarm=True,
                criticality=Criticality.HIGH,
                risk=RiskScore(9.0),
            )

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            MessageTuple("", 2.0, Character.INQUIRY)


class TestAssembleOutput:
    def test_s1_shape(self):
        out = assemble_output(
            HazardCategory.SHARP_OBJECT, RiskScore(9), corridor(CrowdDensity.SPARSE)
        )
        assert out.criticality is Criticality.HIGH
        assert out.message.character is Character.URGENT
        assert out.alarm is True
        assert out.recipients == {
            Channel.NEARBY, Channel.REMOTE, Channel.COORDINATION,
        }

    def test_s2_shape(self):
        out = assemble_output(
            HazardCategory.SHARP_OBJECT, RiskScore(2), EnvContext(LocationType.KITCHEN)
        )
        assert out.criticality is Criticality.LOW
        assert out.message.character is Character.INQUIRY
        assert out.alarm is False
        assert out.recipients == {Channel.NEARBY}

    def test_person_down_high(self):
        out = assemble_output(
            HazardCategory.PERSON_DOWN, RiskScore(8), corridor()
        )
        assert out.criticality is Criticality.HIGH
        assert out.alarm is True
        assert out.recipients == recipients_for(Criticality.HIGH)

    @given(risk_values)
    def test_invariants_hold_for_any_score(self, rho):
        out = assemble_output(HazardCategory.WASTE, RiskScore(rho), corridor())
        assert out.alarm == (out.criticality is not Criticality.LOW)
        assert out.recipients == recipients_for(out.criticality)
        assert out.message.tone == rho

    def test_purity_byte_identical(self):
        a = assemble_output(HazardCategory.DISTRESS, RiskScore(8.5), corridor())
        b = assemble_output(HazardCategory.DISTRESS, RiskScore(8.5), corridor())
        assert a == b
        assert json.dumps(comm_output_wire(a, 7), sort_keys=True) == json.dumps(
            comm_output_wire(b, 7), sort_keys=True
        )

    def test_memo_returns_one_shared_output(self):
        a = assemble_output(HazardCategory.WASTE, RiskScore(3.0), corridor())
        b = assemble_output(HazardCategory.WASTE, RiskScore(3), corridor(CrowdDensity.DENSE))
        assert a is b

    def test_custom_table_after_builtin_output_is_cached(self):
        builtin = assemble_output(HazardCategory.WASTE, RiskScore(2.0), corridor())
        table = TemplateTable.parse("Waste|Low|custom note for the {location}")
        custom = assemble_output(HazardCategory.WASTE, RiskScore(2.0), corridor(), table)
        assert custom.message.text == "custom note for the corridor"
        assert builtin.message.text != custom.message.text
        assert assemble_output(
            HazardCategory.WASTE, RiskScore(2.0), corridor()
        ).message.text == builtin.message.text

    def test_signed_zero_risks_serialize_apart(self):
        def wire(value):
            out = assemble_output(HazardCategory.WASTE, RiskScore(value), corridor())
            return json.dumps(comm_output_wire(out, 0), sort_keys=True)

        assert RiskScore(0.0) == RiskScore(-0.0)
        positive, negative = wire(0.0), wire(-0.0)
        assert '"rho": 0.0' in positive and '"rho": -0.0' in negative
        assert wire(0.0) == positive and wire(-0.0) == negative

    def test_memo_stays_within_its_bound(self):
        bound = _assembled.cache_info().maxsize
        for i in range(bound * 3):
            rho = 10.0 * i / (bound * 3)
            out = assemble_output(HazardCategory.WASTE, RiskScore(rho), corridor())
            assert out.risk.value == rho
        assert _assembled.cache_info().currsize <= bound


class TestEnumFromLabel:
    def test_known_label(self):
        assert enum_from_label(Criticality, "Medium") is Criticality.MEDIUM
        assert enum_from_label(Channel, "coordination") is Channel.COORDINATION

    @pytest.mark.parametrize("label, shown", [
        ("Sludge", "'Sludge'"), ([1], "[1]"), ({"a": 1}, "{'a': 1}"), (None, "None"),
        (5, "5"), ("medium", "'medium'"),
    ])
    def test_unknown_or_unhashable_label_message(self, label, shown):
        with pytest.raises(ValidationError) as info:
            enum_from_label(Criticality, label, "ctx")
        assert str(info.value) == (
            f"unknown Criticality {shown} in ctx; expected one of: Low, Medium, High"
        )


def core_enums():
    return [
        obj for obj in vars(core).values()
        if isinstance(obj, type) and issubclass(obj, Enum) and obj.__module__ == core.__name__
    ]


class TestLabels:
    def test_every_core_enum_derives_from_the_label_base(self):
        labels = [e for e in core_enums() if e is not core.Label]
        assert len(labels) == 8
        assert all(issubclass(e, core.Label) for e in labels)

    @pytest.mark.parametrize("member", [m for e in core_enums() for m in e], ids=repr)
    def test_member_hashes_by_identity_and_survives_copies(self, member):
        assert hash(member) == object.__hash__(member)
        assert copy.deepcopy(member) is member
        assert copy.copy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member
        assert {member: 1}[type(member)(member.value)] == 1

    def test_criticality_rank_follows_the_grade_order(self):
        assert [c.rank for c in Criticality] == [0, 1, 2]
