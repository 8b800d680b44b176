import itertools
import json
import math
import random
from fnmatch import fnmatchcase

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hazcom import (
    ConfigurationError,
    ContextFactors,
    Criticality,
    CrowdDensity,
    EnvContext,
    Feasibility,
    HazardAssessment,
    HazardCategory,
    InjectedFault,
    LocationBaselineBackend,
    LocationType,
    ObjectBaselineBackend,
    Observation,
    RiskScore,
    RuleTable,
    Scenario,
    TimeSensitivity,
    ValidationError,
    band_risk,
    baseline_location_assess,
    baseline_object_assess,
    builtin_rule_table,
    run_suite,
    scripted_assess,
    FaultInjectingBackend,
)
from hazcom.clock import VirtualClock
from hazcom.engine import write_trace
from hazcom.perception import (
    MEMO_SIZE,
    Entity,
    FaultProfile,
    Rule,
    ScriptedBackend,
    _object_identity,
    _verdict,
)

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

    def test_tie_goes_to_the_earlier_entity(self):
        # A bag and a package both score 6.0; the rationale names the first seen.
        for first, second in (("bag", "package"), ("package", "bag")):
            result = baseline_object_assess(make_obs([(first, "left"), (second, "left")]))
            assert result.risk.value == 6.0
            assert result.rationale.startswith(f"object-identity policy: {first!r} ")

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
        wrapped = FaultInjectingBackend(scripted, FaultProfile())
        assert wrapped.assess(s1_obs) == scripted.assess(s1_obs)

    def test_delay_advances_clock(self, s1_obs, scripted):
        clock = VirtualClock()
        wrapped = FaultInjectingBackend(
            scripted, FaultProfile(added_delay=250), clock
        )
        wrapped.assess(s1_obs)
        assert clock.now == 250

    def test_full_failure_rate_always_raises(self, s1_obs, scripted):
        wrapped = FaultInjectingBackend(scripted, FaultProfile(failure_rate=1.0))
        for _ in range(5):
            with pytest.raises(InjectedFault):
                wrapped.assess(s1_obs)

    def test_deterministic_given_seed(self, s1_obs, scripted):
        def outcomes(seed):
            wrapped = FaultInjectingBackend(
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

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.5, 0.9])
    def test_failures_follow_the_seeded_draws(self, s1_obs, scripted, seed, rate):
        # A profile that can fail draws once per call from Random(seed).
        wrapped = FaultInjectingBackend(scripted, FaultProfile(failure_rate=rate, seed=seed))
        draws = random.Random(seed)
        for _ in range(60):
            expected_failure = draws.random() < rate
            try:
                wrapped.assess(s1_obs)
            except InjectedFault:
                assert expected_failure
            else:
                assert not expected_failure

    @given(st.integers(min_value=-(2**64), max_value=2**64), st.integers(0, 400))
    def test_profile_that_cannot_fail_never_raises(self, seed, delay):
        obs = make_obs([("knife", "on-floor")])
        scripted = ScriptedBackend()
        wrapped = FaultInjectingBackend(
            scripted, FaultProfile(added_delay=delay, seed=seed), VirtualClock()
        )
        for _ in range(5):
            assert wrapped.assess(obs) == scripted.assess(obs)

    def test_delay_without_clock_is_config_error(self, scripted):
        with pytest.raises(ConfigurationError, match="added_delay 250 needs a clock"):
            FaultInjectingBackend(scripted, FaultProfile(added_delay=250))
        # Without a delay no clock is needed.
        FaultInjectingBackend(scripted, FaultProfile(failure_rate=0.5))

    def test_profile_validation(self):
        with pytest.raises(ValidationError):
            FaultProfile(added_delay=-1)
        with pytest.raises(ValidationError):
            FaultProfile(failure_rate=1.5)


# --------------------------------------------------------------------------
# Memoized matching and shared verdicts


def scan(table, entity, env):
    """The reference lookup: the first rule matching, by a linear scan."""
    return next(rule for rule in table.rules if rule.matches(entity, env))


# The words the builtin rules test, plus a few the generator and suites use.
RULE_WORDS = (
    "knife", "scissors", "glass", "person", "crowd", "gun", "toy gun", "trash",
    "garbage", "litter", "bag", "appliance", "cooking", "in-use-cooking",
    "shattered", "on-floor-posture-abnormal", "panic-behavior", "agitated",
    "toy-packaging", "unattended", "posture-occluded", "walking", "standing-by",
    "seated", "in-use-normal", "on-floor",
)

mixed_case_words = st.sampled_from(RULE_WORDS).flatmap(
    lambda word: st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )
)
labels = st.one_of(mixed_case_words, st.text(min_size=1, max_size=10))
attributes = st.one_of(mixed_case_words, st.text(max_size=10))

# Differs from the builtin table wherever a knife, a bag, a dense crowd or a
# vulnerable person is in view, and tests "no" for vulnerable and a crowd
# density, which the builtin table does not.
OTHER_TABLE_TEXT = (
    "*knife*|*|*|*|no => SharpObject,Low,NearFuture,Robot,1.0\n"
    "*bag*|*|Kitchen|*|* => none\n"
    "*|*|*|Dense|* => Distress,High,Immediate,HelpNeeded,8.5\n"
    "*|*|*|*|yes => Distress,High,Immediate,HelpNeeded,8.0\n"
    "*|*|*|*|* => Waste,Low,NearFuture,Robot,0.5\n"
)


class TestMemoizedMatch:
    @given(
        st.lists(st.tuples(labels, attributes), min_size=1, max_size=4),
        st.sampled_from(list(LocationType)),
        st.sampled_from(list(CrowdDensity)),
        st.booleans(),
    )
    def test_equals_linear_scan_on_miss_and_hit(self, entities, location, crowd, vulnerable):
        # Fresh tables start with empty memos, so the first lookup misses.
        tables = (RuleTable(builtin_rule_table().rules), RuleTable.parse(OTHER_TABLE_TEXT))
        obs = make_obs(entities, location=location, crowd=crowd, vulnerable=vulnerable)
        for _ in range(2):  # memo miss, then memo hit
            for table in tables:
                for entity in obs.salient_entities:
                    rule = table.match(entity, obs.env)
                    assert rule is scan(table, entity, obs.env)
                    assert any(rule is own for own in table.rules)

    def test_every_context_on_a_warm_table(self):
        # One table answers every combination twice: a memo key that left
        # out any field the rules test would hand back a stale rule.
        for table in (RuleTable(builtin_rule_table().rules), RuleTable.parse(OTHER_TABLE_TEXT)):
            for _ in range(2):
                for label, attribute, location, crowd, vulnerable in itertools.product(
                    ("knife", "KNIFE", "bag", "person"), ("", "Panic", "in-use-cooking"),
                    LocationType, CrowdDensity, (False, True),
                ):
                    entity = Entity(label, attribute)
                    env = EnvContext(location, crowd, vulnerable)
                    assert table.match(entity, env) is scan(table, entity, env)

    def test_tables_do_not_share_a_memo(self):
        builtin, other = builtin_rule_table(), RuleTable.parse(OTHER_TABLE_TEXT)
        obs = make_obs([("knife", "on-floor")], location=LocationType.KITCHEN)
        entity = obs.salient_entities[0]
        first = builtin.match(entity, obs.env)
        second = other.match(entity, obs.env)
        assert first.emission.level is Criticality.MEDIUM
        assert second.emission.level is Criticality.LOW
        assert builtin.match(entity, obs.env) is first
        assert other.match(entity, obs.env) is second

    def test_memo_does_not_change_equality_or_hash(self):
        warm, cold = builtin_rule_table(), RuleTable(builtin_rule_table().rules)
        warm.match(Entity("knife", ""), make_obs().env)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert "_memo" not in repr(cold)

    @pytest.mark.parametrize("make_table", [
        builtin_rule_table, lambda: RuleTable.parse(OTHER_TABLE_TEXT),
    ])
    @pytest.mark.parametrize("vulnerable", [[], {}, [True]])
    def test_unhashable_context_gets_the_scanned_verdict(self, make_table, vulnerable):
        table = make_table()
        for label, attribute in (("knife", "on-floor"), ("bag", ""), ("lamp", "")):
            entity = Entity(label, attribute)
            env = EnvContext(LocationType.KITCHEN, CrowdDensity.NONE, vulnerable)
            rule = scan(table, entity, env)
            assert table.match(entity, env) is rule
            obs = make_obs([(label, attribute)], location=LocationType.KITCHEN)
            obs = Observation(obs.timestamp, obs.scene_caption, obs.salient_entities, env)
            verdict = scripted_assess(table, obs)
            if rule.emission is None:
                assert verdict is None
            else:
                assert verdict.category is rule.emission.category
                assert verdict.risk == rule.emission.risk


class TestSharedVerdicts:
    def test_equal_verdicts_are_one_object(self, s1_obs):
        assert scripted_assess(builtin_rule_table(), s1_obs) is scripted_assess(
            builtin_rule_table(), s1_obs
        )
        assert baseline_object_assess(s1_obs) is baseline_object_assess(s1_obs)
        assert baseline_location_assess(s1_obs) is baseline_location_assess(s1_obs)

    def test_shared_verdict_is_immutable(self, s1_obs):
        verdict = scripted_assess(builtin_rule_table(), s1_obs)
        with pytest.raises(AttributeError):
            verdict.rationale = "changed"

    def test_zero_and_negative_zero_scores_keep_their_sign(self, tmp_path):
        # Both rules give the same rationale for the same entity and place,
        # so their verdicts differ only in the sign of the score.
        table = RuleTable.parse(
            "*|*|*|*|yes => Waste,Low,NearFuture,Robot,-0.0\n"
            "*|*|*|*|* => Waste,Low,NearFuture,Robot,0.0\n"
        )
        scenario = Scenario(
            "signed-zero",
            tuple(
                make_obs([("wrapper", "crumpled")], vulnerable=vulnerable, timestamp=t)
                for t, vulnerable in enumerate((True, False, True, False))
            ),
            (None, None, None, None),
        )
        signs = [-1.0, 1.0, -1.0, 1.0]
        for obs, sign in zip(scenario.observations, signs):
            verdict = scripted_assess(table, obs)
            assert verdict.risk.value == 0.0
            assert math.copysign(1.0, verdict.risk.value) == sign
        report = run_suite([scenario], {"scripted": ScriptedBackend(table)})
        records = report.results["scripted"].runs["signed-zero"].trace
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["rho"] for line in lines] == [0.0] * 4
        assert ['"rho": -0.0' in line for line in lines] == [True, False, True, False]
        assert ['"rho": 0.0' in line for line in lines] == [False, True, False, True]

    def test_open_vocabulary_stream_stays_within_bounds(self):
        # 100,000 distinct labels, as from an open-vocabulary detector, in
        # 2,000 scenes of 50 entities; every memo must stay bounded and every
        # answer must stay the scanned one.
        table = RuleTable(builtin_rule_table().rules)
        backends = (ScriptedBackend(table), ObjectBaselineBackend(), LocationBaselineBackend())
        per_scene = 50
        for scene in range(2_000):
            entities = [
                (f"{('knife', 'bag', 'thing')[i % 3]}-{scene}-{i}", "")
                for i in range(per_scene)
            ]
            obs = make_obs(entities, location=list(LocationType)[scene % 5])
            for backend in backends:
                backend.assess(obs)
            if scene % 400 == 0:
                for entity in obs.salient_entities:
                    assert table.match(entity, obs.env) is scan(table, entity, obs.env)
        assert len(table._memo) <= MEMO_SIZE
        assert _verdict.cache_info().currsize <= MEMO_SIZE
        assert _object_identity.cache_info().currsize <= MEMO_SIZE
        verdict = scripted_assess(table, obs)
        assert verdict.rationale.startswith(repr(entities[0][0]))
