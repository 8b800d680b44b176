from fnmatch import fnmatchcase

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hazcom import (
    ConfigurationError,
    ContextFactors,
    Criticality,
    CrowdDensity,
    Feasibility,
    HazardAssessment,
    HazardCategory,
    InjectedFault,
    LocationType,
    RiskScore,
    RuleTable,
    TimeSensitivity,
    ValidationError,
    band_risk,
    baseline_location_assess,
    baseline_object_assess,
    builtin_rule_table,
    scripted_assess,
    with_fault_injection,
)
from hazcom.clock import VirtualClock
from hazcom.perception import Entity, FaultProfile, Rule, ScriptedBackend

from conftest import make_obs


class TestObservation:
    def test_rejects_empty_caption(self):
        with pytest.raises(ValidationError, match="caption"):
            make_obs(caption="")

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValidationError):
            make_obs(timestamp=-1)

    def test_entity_label_required(self):
        with pytest.raises(ValidationError):
            Entity("", "attr")

    def test_entity_fields_must_be_strings(self):
        with pytest.raises(ValidationError, match="strings"):
            Entity(5, "attr")
        with pytest.raises(ValidationError, match="strings"):
            Entity("knife", None)


class TestHazardAssessment:
    def test_band_coherence_enforced(self):
        with pytest.raises(ValidationError, match="bands to"):
            HazardAssessment(
                category=HazardCategory.WASTE,
                factors=ContextFactors(
                    Criticality.LOW, TimeSensitivity.SOON, Feasibility.ROBOT
                ),
                risk=RiskScore(6.0),
                rationale="incoherent",
            )

    def test_rationale_required(self):
        with pytest.raises(ValidationError, match="rationale"):
            HazardAssessment(
                category=HazardCategory.WASTE,
                factors=ContextFactors(
                    Criticality.LOW, TimeSensitivity.SOON, Feasibility.ROBOT
                ),
                risk=RiskScore(1.0),
                rationale="",
            )


class TestScripted:
    def test_knife_in_kitchen_cooking_is_low(self, s2_obs):
        result = scripted_assess(builtin_rule_table(), s2_obs)
        assert result is not None
        assert result.category is HazardCategory.SHARP_OBJECT
        assert result.factors.criticality_level is Criticality.LOW
        assert result.factors.time_sensitivity is TimeSensitivity.NEAR_FUTURE
        assert result.factors.feasibility is Feasibility.ROBOT
        assert 0 <= result.risk.value < 5

    def test_knife_in_corridor_is_high(self, s1_obs):
        result = scripted_assess(builtin_rule_table(), s1_obs)
        assert result is not None
        assert result.category is HazardCategory.SHARP_OBJECT
        assert result.factors.criticality_level is Criticality.HIGH
        assert result.factors.time_sensitivity is TimeSensitivity.IMMEDIATE
        assert result.factors.feasibility is Feasibility.HELP_NEEDED
        assert 8 <= result.risk.value <= 10

    def test_context_sensitivity_same_object(self, s1_obs, s2_obs):
        # Same object label, different environment: the grades must differ.
        table = builtin_rule_table()
        high = scripted_assess(table, s1_obs)
        low = scripted_assess(table, s2_obs)
        assert high.factors.criticality_level is Criticality.HIGH
        assert low.factors.criticality_level is Criticality.LOW

    def test_person_down(self):
        obs = make_obs([("person", "on-floor-posture-abnormal")])
        result = scripted_assess(builtin_rule_table(), obs)
        assert result.category is HazardCategory.PERSON_DOWN
        assert result.factors.criticality_level is Criticality.HIGH
        assert result.factors.time_sensitivity is TimeSensitivity.IMMEDIATE
        assert result.factors.feasibility is Feasibility.HELP_NEEDED
        assert result.risk.value == 8.0

    def test_toy_gun_disambiguation(self):
        obs = make_obs([("toy gun", "toy-packaging")], location=LocationType.PUBLIC_AREA)
        result = scripted_assess(builtin_rule_table(), obs)
        assert result.category is HazardCategory.SUSPICIOUS_ITEM
        assert result.factors.criticality_level is Criticality.LOW
        assert result.risk.value < 5

    def test_default_rule_for_unknown_entity(self):
        obs = make_obs([("mystery-device", "sparking")])
        result = scripted_assess(builtin_rule_table(), obs)
        assert result.category is HazardCategory.UNATTENDED_ITEM
        assert result.factors.criticality_level is Criticality.MEDIUM
        assert result.risk.value == 5.0

    def test_empty_entities_absent(self, empty_obs):
        assert scripted_assess(builtin_rule_table(), empty_obs) is None

    def test_benign_entities_absent(self):
        obs = make_obs([("person", "walking")])
        assert scripted_assess(builtin_rule_table(), obs) is None

    def test_worst_entity_wins(self):
        obs = make_obs([("trash", "overflowing"), ("knife", "on-floor")])
        result = scripted_assess(builtin_rule_table(), obs)
        assert result.category is HazardCategory.SHARP_OBJECT

    def test_vulnerable_presence_raises_score(self):
        plain = scripted_assess(builtin_rule_table(), make_obs([("knife", "on-floor")]))
        near_vulnerable = scripted_assess(
            builtin_rule_table(),
            make_obs([("knife", "on-floor")], vulnerable=True),
        )
        assert near_vulnerable.risk.value > plain.risk.value

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=12), st.text(max_size=12)),
            max_size=4,
        ),
        st.sampled_from(list(LocationType)),
        st.sampled_from(list(CrowdDensity)),
        st.booleans(),
    )
    def test_totality_never_raises(self, entities, location, crowd, vulnerable):
        obs = make_obs(entities, location=location, crowd=crowd, vulnerable=vulnerable)
        result = scripted_assess(builtin_rule_table(), obs)
        if result is not None:
            assert band_risk(result.risk) is result.factors.criticality_level

    @given(st.text(alphabet="abAB*?[]!-^", max_size=8),
           st.text(alphabet="knifeGLAS*?[]!-^", max_size=10),
           st.text(alphabet="cookingTOY*?[]!-^", max_size=10))
    def test_compiled_globs_match_like_fnmatchcase(self, pattern, label, attribute):
        env = make_obs().env
        entity = Entity(label or "x", attribute)
        generated = (
            Rule(pattern or "*", "*", None, None, None, None),
            Rule("*", pattern or "*", None, None, None, None),
        )
        for rule in generated + builtin_rule_table().rules:
            expected = (
                fnmatchcase(entity.object_label.lower(), rule.object_pattern)
                and fnmatchcase(entity.attribute.lower(), rule.attribute_pattern)
                and rule.location in (None, env.location_type)
                and rule.crowd in (None, env.crowd_density)
                and rule.vulnerable in (None, env.vulnerable_present)
            )
            assert rule.matches(entity, env) == expected

    def test_determinism(self, s1_obs):
        backend = ScriptedBackend()
        assert backend.assess(s1_obs) == backend.assess(s1_obs)


class TestRuleTableParsing:
    def test_parse_minimal_table(self):
        table = RuleTable.parse(
            "*knife*|*|Kitchen|*|* => SharpObject,Low,NearFuture,Robot,2.0\n"
            "*|*|*|*|* => UnattendedItem,Medium,Soon,PoC,5.0\n"
        )
        assert len(table.rules) == 2

    def test_requires_separator(self):
        with pytest.raises(ConfigurationError, match="=>"):
            RuleTable.parse("*|*|*|*|* UnattendedItem,Medium,Soon,PoC,5.0")

    def test_requires_five_match_fields(self):
        with pytest.raises(ConfigurationError, match="5 match fields"):
            RuleTable.parse("*|*|* => UnattendedItem,Medium,Soon,PoC,5.0")

    def test_rejects_band_incoherent_emission(self):
        with pytest.raises(ConfigurationError, match="bands to"):
            RuleTable.parse("*|*|*|*|* => UnattendedItem,Low,Soon,PoC,9.0")

    def test_rejects_out_of_range_score(self):
        with pytest.raises(ConfigurationError, match="outside"):
            RuleTable.parse("*|*|*|*|* => UnattendedItem,Medium,Soon,PoC,12.0")

    def test_requires_terminal_default(self):
        with pytest.raises(ConfigurationError, match="catch-all"):
            RuleTable.parse(
                "*knife*|*|*|*|* => SharpObject,High,Immediate,HelpNeeded,9.0\n"
            )
        with pytest.raises(ConfigurationError, match="catch-all"):
            RuleTable.parse("*|*|*|*|* => none\n")

    def test_bad_vulnerable_token(self):
        with pytest.raises(ConfigurationError, match="vulnerable"):
            RuleTable.parse("*|*|*|*|maybe => UnattendedItem,Medium,Soon,PoC,5.0")

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            "# fine\n*|*|*|*|* => UnattendedItem,Medium,Soon,PoC,99\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError, match="rules.txt:2"):
            RuleTable.load(path)

    def test_builtin_table_loads(self):
        table = builtin_rule_table()
        assert table.rules[-1].emission is not None
        for rule in table.rules:
            if rule.emission is not None:
                assert band_risk(rule.emission.risk) is rule.emission.level


class TestObjectBaseline:
    def test_knife_high_regardless_of_context(self, s1_obs, s2_obs):
        for obs in (s1_obs, s2_obs):
            result = baseline_object_assess(obs)
            assert result.category is HazardCategory.SHARP_OBJECT
            assert result.factors.criticality_level is Criticality.HIGH

    def test_trash_low(self):
        result = baseline_object_assess(make_obs([("trash", "overflowing")]))
        assert result.factors.criticality_level is Criticality.LOW

    def test_empty_absent(self, empty_obs):
        assert baseline_object_assess(empty_obs) is None

    def test_unknown_object_absent(self):
        assert baseline_object_assess(make_obs([("chair", "tipped")])) is None

    def test_toy_gun_false_escalation(self):
        # The deliberate failure mode: object identity cannot see the packaging.
        obs = make_obs([("toy gun", "toy-packaging")])
        result = baseline_object_assess(obs)
        assert result.factors.criticality_level is Criticality.HIGH


class TestLocationBaseline:
    def test_kitchen_always_low(self, s2_obs):
        result = baseline_location_assess(s2_obs)
        assert result.factors.criticality_level is Criticality.LOW

    def test_corridor_always_high(self, s1_obs):
        result = baseline_location_assess(s1_obs)
        assert result.factors.criticality_level is Criticality.HIGH

    def test_person_down_in_kitchen_misgraded_low(self):
        # Expected misclassification: the mapping ignores the hazard itself.
        obs = make_obs(
            [("person", "on-floor-posture-abnormal")], location=LocationType.KITCHEN
        )
        result = baseline_location_assess(obs)
        assert result.category is HazardCategory.PERSON_DOWN
        assert result.factors.criticality_level is Criticality.LOW

    def test_empty_absent(self, empty_obs):
        assert baseline_location_assess(empty_obs) is None


class TestFaultInjection:
    def test_identity_when_disabled(self, s1_obs, scripted):
        wrapped = with_fault_injection(scripted, FaultProfile())
        assert wrapped.assess(s1_obs) == scripted.assess(s1_obs)

    def test_delay_advances_clock(self, s1_obs, scripted):
        clock = VirtualClock()
        wrapped = with_fault_injection(
            scripted, FaultProfile(added_delay=250), clock
        )
        wrapped.assess(s1_obs)
        assert clock.now == 250

    def test_full_failure_rate_always_raises(self, s1_obs, scripted):
        wrapped = with_fault_injection(scripted, FaultProfile(failure_rate=1.0))
        for _ in range(5):
            with pytest.raises(InjectedFault):
                wrapped.assess(s1_obs)

    def test_deterministic_given_seed(self, s1_obs, scripted):
        def outcomes(seed):
            wrapped = with_fault_injection(
                scripted, FaultProfile(failure_rate=0.5, seed=seed)
            )
            result = []
            for _ in range(20):
                try:
                    wrapped.assess(s1_obs)
                    result.append("ok")
                except InjectedFault:
                    result.append("fail")
            return result

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_profile_validation(self):
        with pytest.raises(ValidationError):
            FaultProfile(added_delay=-1)
        with pytest.raises(ValidationError):
            FaultProfile(failure_rate=1.5)
