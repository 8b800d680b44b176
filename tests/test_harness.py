import hashlib
import json
import random

import pytest

from hazcom import (
    ConfigurationError,
    Criticality,
    EngineConfig,
    FaultProfile,
    HazardCategory,
    LocationBaselineBackend,
    LocationType,
    MixConfig,
    ObjectBaselineBackend,
    Scenario,
    ScriptedBackend,
    ValidationError,
    builtin_rule_table,
    builtin_suite,
    generate,
    load_scenarios,
    recipients_for,
    run_suite,
    save_scenarios,
    scripted_assess,
    sixty_run_suite,
)
from hazcom.clock import seconds_to_ticks
from hazcom.core import RiskScore, band_risk
from hazcom.engine import read_trace, write_trace
from hazcom.harness import run_scenario, scenario_file_text, truth_from_rules


def local_backends():
    return {
        "scripted": ScriptedBackend(),
        "object-baseline": ObjectBaselineBackend(),
        "location-baseline": LocationBaselineBackend(),
    }


def faulted_suite():
    """60 all-hazard scenarios over the fault sweep's 0-30 s delay grid.

    A seeded third of them also fail at rate 0.3, so every fallback grade
    (no prior verdict, Low, Medium, High) is written by each local backend.
    """
    rng = random.Random(5)
    delays = (0, 2.5, 5, 7.5, 10, 15, 20, 25, 30)
    return [
        Scenario(s.scenario_id, s.observations, s.ground_truth, FaultProfile(
            added_delay=seconds_to_ticks(delays[i % len(delays)]),
            failure_rate=0.3 if rng.random() < 1 / 3 else 0.0,
            seed=rng.randrange(2**31),
        ))
        for i, s in enumerate(generate(5, 60, MixConfig(hazard_fraction=1.0)))
    ]


class TestBuiltinSuite:
    def test_canonical_truths(self):
        suite = {s.scenario_id: s for s in builtin_suite()}
        knife_unsafe = suite["S1-knife-unsafe-area"].ground_truth[1]
        assert knife_unsafe.category is HazardCategory.SHARP_OBJECT
        assert knife_unsafe.criticality is Criticality.HIGH
        kitchen = suite["S2-knife-kitchen"].ground_truth[0]
        assert kitchen.criticality is Criticality.LOW
        trash = suite["S5-trash-cleaning"].ground_truth[0]
        assert trash.category is HazardCategory.WASTE
        assert trash.criticality is Criticality.LOW

    def test_truths_match_the_rule_table(self):
        # The hand-written canonical truths and the table must agree.
        for scenario in builtin_suite():
            for obs, truth in zip(scenario.observations, scenario.ground_truth):
                derived = truth_from_rules(obs)
                if truth is None:
                    assert derived is None
                else:
                    assert derived is not None
                    assert derived.category is truth.category
                    assert derived.criticality is truth.criticality
                    assert derived.time_sensitivity is truth.time_sensitivity
                    assert derived.feasibility is truth.feasibility

    def test_coverage_of_grades_channels_alarms_and_fallback(self):
        suite = builtin_suite()
        grades = {
            t.criticality
            for s in suite for t in s.ground_truth if t is not None
        }
        assert grades == {Criticality.LOW, Criticality.MEDIUM, Criticality.HIGH}
        assert any(s.fault_profile is not None for s in suite)
        assert any(t is None for s in suite for t in s.ground_truth)

        report = run_suite(suite, {"scripted": ScriptedBackend()})
        result = report.results["scripted"]
        seen_recipient_sets = set()
        seen_alarms = set()
        fallbacks = 0
        for run in result.runs.values():
            fallbacks += run.fallback_steps
            for record in run.trace:
                if record.criticality is not None:
                    seen_recipient_sets.add(frozenset(record.recipients))
                    seen_alarms.add(record.alarm)
                else:
                    seen_alarms.add(record.alarm)
        assert seen_recipient_sets == {
            frozenset(recipients_for(k)) for k in Criticality
        }
        assert seen_alarms == {True, False}
        assert fallbacks > 0

    def test_scenario_alignment_validated(self):
        with pytest.raises(ValidationError, match="truth entries"):
            Scenario("bad", builtin_suite()[0].observations, (None,))


class TestSixtyRunSuite:
    def test_sixty_runs(self):
        suite = sixty_run_suite()
        assert len(suite) == 60
        assert len({s.scenario_id for s in suite}) == 60

    def test_truths_are_table_derived(self):
        table = builtin_rule_table()
        for scenario in sixty_run_suite():
            for obs, truth in zip(scenario.observations, scenario.ground_truth):
                assessment = scripted_assess(table, obs)
                if truth is None:
                    assert assessment is None
                else:
                    assert assessment.category is truth.category

    def test_contains_ambiguity_cases(self):
        suite = sixty_run_suite()
        occluded = [
            s for s in suite
            if any(
                e.attribute == "posture-occluded"
                for o in s.observations for e in o.salient_entities
            )
        ]
        assert occluded
        assert all(t is None for s in occluded for t in s.ground_truth)

    def test_accuracy_gap_at_least_ten_points(self):
        report = run_suite(
            sixty_run_suite(),
            {"scripted": ScriptedBackend(), "object-baseline": ObjectBaselineBackend()},
        )
        scripted = report.results["scripted"].sub_metrics.eps_det
        baseline = report.results["object-baseline"].sub_metrics.eps_det
        assert scripted - baseline >= 0.10


class TestScenarioFiles:
    def test_round_trip_builtin(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = builtin_suite()
        save_scenarios(path, suite)
        assert load_scenarios(path) == suite

    def test_round_trip_sixty_and_generated(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = sixty_run_suite() + generate(5, 10)
        save_scenarios(path, suite)
        assert load_scenarios(path) == suite

    def test_score_out_of_range_is_a_parse_error(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = builtin_suite()
        save_scenarios(path, suite)
        document = json.loads(path.read_text())
        document["scenarios"][0]["steps"][1]["truth"]["rho"] = 11.0
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="range"):
            load_scenarios(path)

    def test_level_grade_incoherence_is_named(self, tmp_path):
        path = tmp_path / "suite.json"
        save_scenarios(path, builtin_suite())
        document = json.loads(path.read_text())
        step = document["scenarios"][0]["steps"][1]
        step["truth"]["d"] = "Low"          # k stays High
        del step["truth"]["rho"]
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="incoherent"):
            load_scenarios(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda obs: obs["entities"][0].pop("attribute"), "entity must have exactly"),
        (lambda obs: obs.pop("entities"), "request must have exactly"),
        (lambda obs: obs["env"].pop("crowd_density"), "env must have exactly"),
        (lambda obs: obs.update(timestamp="1"), "'timestamp' must be an integer"),
    ], ids=["attribute-missing", "entities-missing", "crowd-missing", "timestamp-string"])
    def test_observation_is_decoded_strictly(self, tmp_path, corrupt, message):
        path = tmp_path / "suite.json"
        save_scenarios(path, builtin_suite())
        document = json.loads(path.read_text())
        corrupt(document["scenarios"][0]["steps"][1]["observation"])
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError) as excinfo:
            load_scenarios(path)
        assert str(excinfo.value).startswith(
            f"{path}: scenario 0 (S1-knife-unsafe-area, step 1): invalid observation: "
        )
        assert message in str(excinfo.value)

    def test_json_syntax_error_carries_line_number(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text('{\n  "format": "hazcom-scenarios-v1",\n  broken\n}')
        with pytest.raises(ConfigurationError, match="suite.json:3"):
            load_scenarios(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"format": "other", "scenarios": []}))
        with pytest.raises(ConfigurationError, match="hazcom-scenarios-v1"):
            load_scenarios(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = builtin_suite()
        save_scenarios(path, suite)
        document = json.loads(path.read_text())
        document["scenarios"].append(document["scenarios"][0])
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_scenarios(path)

    def test_deeply_nested_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(ConfigurationError, match="nested too deeply"):
            load_scenarios(path)

    @pytest.mark.parametrize("index, change, message", [
        (0, {"id": 5}, "scenario 0: 'id' must be a string, got 5"),
        (7, {"fault_profile": {"added_delay": 2.7, "failure_rate": 0.0, "seed": 0}},
         "scenario 7 (S8-degraded-backend): invalid fault profile: "
         "'added_delay' must be an integer, got 2.7"),
        (7, {"fault_profile": {"added_delay": 250, "failure_rate": "0.5", "seed": 0}},
         "scenario 7 (S8-degraded-backend): invalid fault profile: "
         "'failure_rate' must be a number, got '0.5'"),
        (7, {"fault_profile": {"added_delay": 250, "failure_rate": 0.0, "seed": True}},
         "scenario 7 (S8-degraded-backend): invalid fault profile: "
         "'seed' must be an integer, got True"),
        (7, {"fault_profile": {"delay": 250}},
         "scenario 7 (S8-degraded-backend): invalid fault profile: fault profile must have "
         "exactly the fields [] and optionally ['added_delay', 'failure_rate', 'seed']; "
         "missing=[] unknown=['delay']"),
    ], ids=["id-number", "delay-float", "rate-string", "seed-bool", "unknown-key"])
    def test_scenario_fields_are_not_coerced(self, tmp_path, index, change, message):
        path = tmp_path / "suite.json"
        save_scenarios(path, builtin_suite())
        document = json.loads(path.read_text())
        assert document["scenarios"][7]["id"] == "S8-degraded-backend"
        document["scenarios"][index].update(change)
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError) as excinfo:
            load_scenarios(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["scenarios"][0].update(fault_profile=[1]),
            lambda doc: doc["scenarios"][0].update(steps=5),
            lambda doc: doc.update(scenarios=7),
            lambda doc: doc["scenarios"][0]["steps"][1]["observation"]["entities"][0]
            .update(object_label=5),
            lambda doc: doc["scenarios"][0]["steps"][1]["observation"]
            .update(timestamp=float("inf")),
            None,
        ],
        ids=[
            "fault-profile-not-object", "steps-not-list", "scenarios-not-list",
            "label-not-string", "timestamp-infinite", "not-utf8",
        ],
    )
    def test_malformed_file_is_a_configuration_error(self, tmp_path, corrupt):
        path = tmp_path / "suite.json"
        save_scenarios(path, builtin_suite())
        if corrupt is None:
            path.write_bytes(b"\xff" + path.read_bytes())
        else:
            document = json.loads(path.read_text())
            corrupt(document)
            path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError):
            load_scenarios(path)


class TestGenerate:
    def test_same_seed_same_suite(self):
        assert generate(11, 20) == generate(11, 20)

    def test_different_seed_differs(self):
        assert generate(11, 20) != generate(12, 20)

    def test_default_mix_covers_every_category(self):
        suite = generate(0, 60)
        seen = {
            t.category
            for s in suite for t in s.ground_truth if t is not None
        }
        assert seen == set(HazardCategory)

    def test_zero_hazard_mix_is_all_absent(self):
        suite = generate(3, 10, MixConfig(hazard_fraction=0.0))
        assert all(t is None for s in suite for t in s.ground_truth)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValidationError):
            MixConfig(hazard_fraction=1.5)
        with pytest.raises(ValidationError):
            MixConfig(category_weights={c: 0.0 for c in HazardCategory})
        with pytest.raises(ValidationError):
            generate(0, 0)

    def test_truths_band_coherent(self):
        for scenario in generate(9, 30):
            for truth in scenario.ground_truth:
                if truth is not None:
                    assert band_risk(RiskScore(truth.risk)) is truth.criticality

    @pytest.mark.parametrize("weights", [
        {HazardCategory.WASTE: float("inf")},
        {HazardCategory.WASTE: float("nan")},
        {HazardCategory.WASTE: float("-inf")},
        {HazardCategory.WASTE: 1e308, HazardCategory.DISTRESS: 1e308},
        {HazardCategory.WASTE: "1.0"},
        {"Waste": 1.0},
        {LocationType.KITCHEN: 1.0},
    ])
    def test_bad_category_weights_rejected(self, weights):
        with pytest.raises(ValidationError):
            MixConfig(category_weights=weights)

    @pytest.mark.parametrize("weights", [
        {LocationType.KITCHEN: float("inf")},
        {LocationType.KITCHEN: float("nan")},
        {LocationType.KITCHEN: 1e308, LocationType.OFFICE: 1e308},
        {"kitchen": 1.0},
        {HazardCategory.WASTE: 1.0},
    ])
    def test_bad_location_weights_rejected(self, weights):
        with pytest.raises(ValidationError):
            MixConfig(location_weights=weights)

    # Golden digests of the scenario file under non-default mixes: the
    # generator must keep consuming its RNG exactly as it always has.
    @pytest.mark.parametrize("seed, mix, digest", [
        # Every weight on Kitchen: the exemplars that exclude the kitchen
        # fall back to their allowed locations uniformly.
        (21, MixConfig(location_weights={
            location: (1.0 if location is LocationType.KITCHEN else 0.0)
            for location in LocationType
        }), "028f424dc99d00ad0c5760db68daff5d7378783c4b58bcd6ec8c1c696b31f400"),
        (22, MixConfig(category_weights={
            HazardCategory.SHARP_OBJECT: 5.0,
            HazardCategory.WASTE: 0.5,
            HazardCategory.DISTRESS: 2.25,
            HazardCategory.PERSON_DOWN: 0.0,
            HazardCategory.SUSPICIOUS_ITEM: 1.0,
            HazardCategory.UNATTENDED_ITEM: 0.125,
        }), "bbe5ad4055982175bb6164df11d1ed0d05e180cd3f02683e98ed18fc1d63d13c"),
        (23, MixConfig(hazard_fraction=0.0),
         "217645d2f393c7a3631e8a1d1c62a1187072f58e755b1c86bbf77c74b7ea886d"),
    ], ids=["kitchen-only", "skewed-categories", "no-hazards"])
    def test_generate_matches_golden_digest(self, seed, mix, digest):
        text = scenario_file_text(generate(seed, 200, mix))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_category_weights_respected(self):
        mix = MixConfig(category_weights={
            category: (1.0 if category is HazardCategory.WASTE else 0.0)
            for category in HazardCategory
        })
        suite = generate(4, 20, mix)
        seen = {
            t.category for s in suite for t in s.ground_truth if t is not None
        }
        assert seen == {HazardCategory.WASTE}


class TestRunSuite:
    def test_coordination_is_exact_with_memory_sinks(self):
        report = run_suite(builtin_suite(), {"scripted": ScriptedBackend()})
        assert report.results["scripted"].sub_metrics.eps_coord == 1.0

    def test_scripted_alignment_perfect_on_clean_suites(self):
        # The deterministic policy cannot misalign tone or character on its
        # own; misalignment only enters through degraded backends.
        clean_builtin = [s for s in builtin_suite() if s.fault_profile is None]
        for suite in (clean_builtin, sixty_run_suite()):
            report = run_suite(suite, {"scripted": ScriptedBackend()})
            assert report.results["scripted"].sub_metrics.eps_msg == 1.0
            assert report.results["scripted"].sub_metrics.eps_det == 1.0

    def test_builtin_scripted_beats_object_baseline(self):
        report = run_suite(
            builtin_suite(),
            {"scripted": ScriptedBackend(), "object-baseline": ObjectBaselineBackend()},
        )
        scripted = report.results["scripted"].sub_metrics.eps_det
        baseline = report.results["object-baseline"].sub_metrics.eps_det
        assert scripted > baseline

    def test_deliveries_match_recipient_sets(self):
        run = run_scenario(
            builtin_suite()[0], ScriptedBackend(), EngineConfig()
        )
        for record, group in zip(run.trace, run.deliveries):
            if record.criticality is None:
                assert group == []
            else:
                assert {r.channel for r in group} == recipients_for(record.criticality)

    def test_degraded_scenario_uses_fallback_but_still_communicates(self):
        suite = {s.scenario_id: s for s in builtin_suite()}
        run = run_scenario(
            suite["S8-degraded-backend"], ScriptedBackend(), EngineConfig()
        )
        hazard_steps = [r for r in run.trace if r.criticality is not None]
        assert hazard_steps
        assert all(r.fallback for r in hazard_steps)
        assert run.fallback_steps == len(hazard_steps)
        # no-hazard step still recorded explicitly
        assert any(r.criticality is None for r in run.trace)

    def test_reports_are_deterministic(self):
        def render():
            report = run_suite(
                builtin_suite() + generate(7, 6),
                {
                    "scripted": ScriptedBackend(),
                    "location-baseline": LocationBaselineBackend(),
                },
            )
            return json.dumps(report.to_json_dict(), sort_keys=True)

        assert render() == render()

    def test_faulted_report_matches_golden_digest(self):
        report = run_suite(faulted_suite(), local_backends())
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "c95869a4c42b3a8233855948f6107b48f3d3c6dc96e27303a681d0e97b2191f9"
        )

    def test_trace_files_match_golden_digest(self, tmp_path):
        # Pins the bytes write_trace produces for every record of the
        # builtin, sixty-run and faulted suites over the local backends,
        # and that each file reads back to the same records.
        digest = hashlib.sha256()
        for name, suite in (
            ("builtin", builtin_suite()),
            ("sixty", sixty_run_suite()),
            ("faulted", faulted_suite()),
        ):
            report = run_suite(suite, local_backends())
            records = [
                record
                for backend_name in report.backend_names
                for run in report.results[backend_name].runs.values()
                for record in run.trace
            ]
            path = tmp_path / f"{name}.jsonl"
            write_trace(path, records)
            assert read_trace(path) == records
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "41b07f7c10e3fac250b58e13e8636ae4629aa971e7acb5f3d10815d93f5d4070"
        )

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValidationError):
            run_suite([], {"scripted": ScriptedBackend()})
        with pytest.raises(ValidationError):
            run_suite(builtin_suite(), {})

    def test_rejects_duplicate_scenario_ids(self):
        suite = builtin_suite()
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_suite(suite + [suite[0]], {"scripted": ScriptedBackend()})

    def test_text_report_renders(self):
        report = run_suite(builtin_suite(), {"scripted": ScriptedBackend()})
        text = report.to_text()
        assert "scripted" in text
        assert "violations: none" in text
