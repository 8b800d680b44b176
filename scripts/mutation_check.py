#!/usr/bin/env python3
"""Check that every listed mutant of the package fails a behavioural test.

    python3 scripts/mutation_check.py

A mutant is one exact text replacement in one file under ``src/hazcom``; its
old text must occur there exactly once.  For each mutant the script copies
``src/`` to a temporary directory, applies the mutant to the copy and runs
the mutant's tests against it with ``-x``: a test module, or a class or
test in one, as pytest names them.  On a shared 2-vCPU machine (Python
3.11) 82 to 91 mutants took 3 min 7 s to 5 min 20 s (91: 4 min 24 s and
5 min 10 s), where running the whole test suite per mutant took about
three minutes for the first 17.
The golden-digest tests are deselected: a digest fails on almost any
change, and a re-pin regenerates it on purpose, so a mutant counts as
killed only by a test that names the behaviour it broke.

The unmutated sources are run through the same tests first, so that a
failing suite cannot pass for a killed mutant.  A mutant is killed only when
a test fails (pytest exit 1), a test module fails to collect (exit 2), or
the mutated package does not import at all, so that pytest cannot load
``tests/conftest.py`` (exit 4, checked with ``import hazcom.cli``, which loads
every module the conftest can; ``import hazcom`` loads none).  It survives
when its tests pass (exit 0); any other exit, such as no test left after the
digest filter (5), means nothing judged it.  Exits 0 when every mutant is
killed, 1 naming each survivor, and 2 when a mutant does not apply, nothing
judged it, or the unmutated sources fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DESELECT = "not golden_digest and not TestVerdictCorpus"
KILLED = (1, 2)  # pytest's exit codes for a failed test and a collection error


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hazcom
    old: str
    new: str
    tests: tuple[str, ...]  # the tests that should kill it, as pytest names them


_PERCEPTION = ("tests/test_perception.py",)
_TRANSPORT = "tests/test_remote.py::TestHttpTransport::"
_WIRE = "tests/test_remote.py::TestWireFormat::"
_RESPONSE_SCORES = "tests/test_remote.py::TestResponseScores::"
_WRITER = "tests/test_trace_codec.py::TestWriterExactness::"
_READER = "tests/test_trace_codec.py::TestReaderAgreesWithCheckedPath::"
_RESPELT = (_READER + "test_per_step_value_spelt_another_way",)
_BANDING = ("tests/test_core.py::TestBanding::test_band_examples",)
_POLICY = "tests/test_core.py::TestCharacterAlarmRecipients::"
_ORACLE = ("tests/test_oracle.py::TestRulesByExample",)
_GENERATE = "tests/test_harness.py::TestGenerate"
_DRAW = "tests/test_harness.py::TestWeightedDraw::test_draw_is_choices_with_cum_weights"
_SHARED = (_GENERATE + "::test_suite_holds_one_object_per_value",)
_PLAIN = (_GENERATE + "::test_equals_the_plain_generator",)
_INDEX = "tests/test_harness.py::TestWeightedDraw::test_index_draw_is_choice_and_randint"
_DELIVERY_MEMO = ("tests/test_dispatch.py::TestMemorySink::"
                  "test_records_are_shared_per_channel_tick_and_detail",)
_LONG_TRACE_INT = ("tests/test_trace_codec.py::TestStrictWhitespace::"
                   "test_integer_longer_than_python_reads_is_not_json",)
_INTAKES = "tests/test_documents.py::TestIntakesAreTotal::"

MUTANTS = (
    Mutant("memo key drops the label", "perception.py",
           "key = (entity.object_label, entity.attribute,",
           "key = (entity.attribute,", _PERCEPTION),
    Mutant("memo key drops the attribute", "perception.py",
           "key = (entity.object_label, entity.attribute,",
           "key = (entity.object_label,", _PERCEPTION),
    Mutant("memo key drops the location", "perception.py",
           "env.location_type, env.crowd_density, env.vulnerable_present)",
           "env.crowd_density, env.vulnerable_present)", _PERCEPTION),
    Mutant("memo key drops the crowd", "perception.py",
           "env.location_type, env.crowd_density, env.vulnerable_present)",
           "env.location_type, env.vulnerable_present)", _PERCEPTION),
    Mutant("memo key drops the vulnerable flag", "perception.py",
           "env.location_type, env.crowd_density, env.vulnerable_present)",
           "env.location_type, env.crowd_density)", _PERCEPTION),
    Mutant("memo never cleared", "perception.py",
           "memo.clear()", "pass", _PERCEPTION),
    Mutant("unhashable context gets the catch-all rule", "perception.py",
           "return self._scan(entity, env)", "return self.rules[-1]", _PERCEPTION),
    Mutant("rule rationale drops the attribute pattern", "perception.py",
           'f"rule {obj_pat}|{attr_pat}|', 'f"rule {obj_pat}|', _PERCEPTION),
    Mutant("scripted tie goes to the latest entity", "perception.py",
           "verdict = table.match(entity, obs.env).emission\n"
           "        if verdict is not None and (best is None or verdict.risk.value > best",
           "verdict = table.match(entity, obs.env).emission\n"
           "        if verdict is not None and (best is None or verdict.risk.value >= best",
           _PERCEPTION),
    Mutant("object tie goes to the latest entity", "perception.py",
           "verdict = _object_verdict(entity.object_label)\n"
           "        if verdict is not None and (best is None or verdict.risk.value > best",
           "verdict = _object_verdict(entity.object_label)\n"
           "        if verdict is not None and (best is None or verdict.risk.value >= best",
           _PERCEPTION),
    Mutant("location verdict ignores the category", "perception.py",
           "_LOCATION_VERDICTS[verdict.category, obs.env.location_type]",
           "_LOCATION_VERDICTS[HazardCategory.WASTE, obs.env.location_type]", _PERCEPTION),
    Mutant("zero remote timeout accepted", "perception.py",
           "timeout_ticks <= 0:", "timeout_ticks < 0:", ("tests/test_remote.py",)),
    Mutant("non-int remote timeout accepted", "perception.py",
           "if type(timeout_ticks) is not int or timeout_ticks <= 0:",
           "if not timeout_ticks > 0:", ("tests/test_remote.py::TestEndpointValidation",)),
    Mutant("remote limits unchecked when built", "perception.py",
           "_http.check_limits(endpoint, timeout_ticks)", "pass",
           ("tests/test_remote.py::TestEndpointValidation",)),
    Mutant("remote timeout too large for a float escapes as OverflowError", "_http.py",
           "timeout_ticks < threading.TIMEOUT_MAX * TICKS_PER_SECOND:",
           "ticks_to_seconds(timeout_ticks) < threading.TIMEOUT_MAX:",
           ("tests/test_remote.py::TestEndpointValidation",)),
    Mutant("no_hazard: false is accepted", "perception.py",
           'if doc["no_hazard"] is not True:', "if False:",
           (_WIRE + "test_no_hazard_false_rejected",)),
    Mutant("request value error escapes untyped", "perception.py",
           "except ValidationError as exc:\n        raise BackendResponseError(f\"invalid request",
           "except BackendResponseError as exc:\n        raise BackendResponseError(f\"invalid request",
           (_WIRE + "test_invalid_request_value_rejected",)),
    Mutant("response score drops its sign", "perception.py",
           'risk=RiskScore(float(doc["rho"]))', 'risk=RiskScore(abs(float(doc["rho"])))',
           (_RESPONSE_SCORES + "test_zero_keeps_its_sign_in_the_trace_line",)),
    Mutant("request encoder sorts the keys", "_http.py",
           '": ", ", ", False, False, True)', '": ", ", ", True, False, True)',
           ("tests/test_remote.py::TestRequestBytes",)),
    Mutant("HTTP client loads the stdlib HTTP library", "_http.py",
           "import json\nimport re\n", "import http.client\nimport json\nimport re\n",
           ("tests/test_remote.py::test_import_loads_no_http_client_library",)),
    Mutant("socket timeout out of range reaches the socket", "_http.py",
           "if not timeout_ticks < threading.TIMEOUT_MAX * TICKS_PER_SECOND:", "if False:",
           ("tests/test_remote.py",)),
    Mutant("cached request head keeps userinfo in Host", "_http.py",
           "parts.netloc.rpartition('@')[2]", "parts.netloc",
           (_TRANSPORT + "test_request_is_http_1_0_with_connection_close",)),
    Mutant("connect waits past the deadline", "_http.py",
           "sock.settimeout(_remaining(deadline))\n            sock.connect(address)",
           "sock.connect(address)",
           (_TRANSPORT + "test_connect_to_a_full_listener_times_out_at_the_deadline",)),
    Mutant("HTTP client raises a timeout as a transport error", "_http.py",
           'raise BackendTimeout(f"no response from {url}',
           'raise BackendTransportError(f"no response from {url}',
           ("tests/test_remote.py::TestPostJsonErrors",)),
    Mutant("host the IDNA codec refuses accepted when built", "_http.py",
           'parts.hostname.encode("idna")', 'parts.hostname.encode("ascii")',
           ("tests/test_remote.py::TestEndpointValidation",)),
    Mutant("field check with every key skips the types", "core.py",
           "    if doc.keys() != fields.keys():",
           "    if doc.keys() == fields.keys():\n        return doc\n    else:",
           ("tests/test_remote.py::TestFieldMessages",)),
    Mutant("bool tick count accepted", "core.py",
           "if type(value) is not int or value < 0:",
           "if not isinstance(value, int) or value < 0:",
           ("tests/test_engine.py", "tests/test_perception.py")),
    Mutant("tick count past a float accepted", "core.py",
           "if bounded and value > MAX_TICKS:", "if False:",
           ("tests/test_engine.py::TestEngineConfigTickCounts",
            "tests/test_cli.py::TestRun::test_fault_delay_past_a_float_is_config_error")),
    Mutant("JSON intake lets an over-long integer out", "core.py",
           "except (ValueError, RecursionError) as exc:",
           "except (json.JSONDecodeError, RecursionError) as exc:",
           ("tests/test_core.py::TestParseJson",)),
    Mutant("scenario file read past the JSON intake", "scenarios.py",
           "document = parse_json(text, str(path), ConfigurationError)",
           "document = json.loads(text)",
           ("tests/test_harness.py::TestScenarioFiles::"
            "test_integer_too_long_to_read_is_a_configuration_error",
            _INTAKES + "test_run_on_a_mutated_scenario_file_ends_in_an_exit_code")),
    Mutant("trace line read past the JSON intake", "engine.py",
           "TraceRecord.from_wire(parse_json(line, where, ValidationError), where)",
           "TraceRecord.from_wire(json.loads(line), where)", _LONG_TRACE_INT),
    Mutant("verify's line read past the JSON intake", "engine.py",
           "yield where, parse_json(line, where, ValidationError)",
           "yield where, json.loads(line)",
           _LONG_TRACE_INT + (_INTAKES + "test_verify_on_a_mutated_trace_ends_in_an_exit_code",)),
    Mutant("remote reply read past the JSON intake", "_http.py",
           'parse_json(reply[len(head) + 4:end], f"response from {url}", BackendResponseError)',
           "json.loads(reply[len(head) + 4:end])",
           ("tests/test_remote.py::TestPostJsonErrors::test_utf16_body_is_a_response_error",
            _INTAKES + "test_a_reply_is_an_object_or_one_of_two_errors")),
    Mutant("unknown template placeholder accepted", "core.py",
           "except (LookupError, AttributeError, TypeError, ValueError) as exc:",
           "except (AttributeError, TypeError, ValueError) as exc:",
           ("tests/test_core.py::TestTemplateTable",)),
    Mutant("virtual clock advances by a fraction", "clock.py",
           "check_ticks(\"clock advance\", ticks)\n        self._now += ticks",
           "self._now += ticks", ("tests/test_engine.py",)),
    Mutant("stage-timer cache untyped", "engine.py",
           "lru_cache(maxsize=1024, typed=True)(StageTimers)",
           "lru_cache(maxsize=1024)(StageTimers)", ("tests/test_engine.py",)),
    Mutant("budget of a non-tick value accepted", "engine.py",
           'check_ticks("t_max", self.t_max)\n        if', "if",
           ("tests/test_engine.py::TestEngineConfigTickCounts",)),
    Mutant("repeat exactly one window later is not fatigue", "metrics.py",
           "record.tick - previous <= suppression_window",
           "record.tick - previous < suppression_window", ("tests/test_metrics.py",)),
    Mutant("shape reader takes a non-finite score", "engine.py",
           "value if value - value == 0.0 and repr(value) == text else",
           "value if repr(value) == text else", _RESPELT),
    Mutant("shape reader takes a score spelt otherwise", "engine.py",
           "value if value - value == 0.0 and repr(value) == text else",
           "value if value - value == 0.0 else", _RESPELT),
    Mutant("shape reader takes a tick spelt otherwise", "engine.py",
           "if str(t) == tick and obs_id.isascii()", "if obs_id.isascii()", _RESPELT),
    Mutant("shape reader takes a non-ASCII obs_id", "engine.py",
           "obs_id.isascii() and obs_id.isprintable()", "obs_id.isprintable()", _RESPELT),
    Mutant("shape reader takes an unprintable obs_id", "engine.py",
           "obs_id.isascii() and obs_id.isprintable() and", "obs_id.isascii() and", _RESPELT),
    Mutant("shape reader takes an escaped obs_id", "engine.py",
           r'obs_id.isprintable() and "\\" not in obs_id', "obs_id.isprintable()", _RESPELT),
    Mutant("shape reader takes a line not ending its object", "engine.py",
           'if line[-1] == "}":', "if True:",
           (_READER + "test_a_line_without_its_closing_brace_is_not_json",)),
    Mutant("shape table never cleared", "engine.py", "_SHAPES.clear()", "pass",
           (_READER + "test_shape_table_stays_bounded_and_unpoisoned",)),
    Mutant("writer's fragments take a non-finite risk", "engine.py",
           "type(rho) is float and rho - rho == 0.0", "type(rho) is float",
           (_WRITER + "test_every_line_is_the_encoders",)),
    Mutant("writer's fragments take an int alarm", "engine.py",
           "and type(alarm) is bool and", "and",
           (_WRITER + "test_equal_values_of_other_types_get_their_own_line",)),
    Mutant("writer's fragments take a float t_total", "engine.py",
           "and type(t_total) is int and", "and",
           (_WRITER + "test_equal_values_of_other_types_get_their_own_line",)),
    Mutant("score 5.0 bands to Low", "core.py",
           "if value < MEDIUM_RISK_THRESHOLD:", "if value <= MEDIUM_RISK_THRESHOLD:",
           _BANDING),
    Mutant("score 8.0 bands to Medium", "core.py",
           "if value < HIGH_RISK_THRESHOLD:", "if value <= HIGH_RISK_THRESHOLD:",
           _BANDING),
    Mutant("alarm only on High", "core.py",
           "Character.ALERT, True,", "Character.ALERT, False,",
           (_POLICY + "test_alarm_mapping",)),
    Mutant("Medium routes to nearby alone", "core.py",
           "True, CHANNEL_ORDER[:2]),", "True, CHANNEL_ORDER[:1]),",
           (_POLICY + "test_recipient_sets",)),
    Mutant("Medium routes to remote before nearby", "core.py",
           "True, CHANNEL_ORDER[:2]),", "True, CHANNEL_ORDER[1::-1]),",
           (_POLICY + "test_recipients_in_order_are_the_sets_in_channel_order",)),
    Mutant("tone 10.0 outside the High band", "core.py",
           "RISK_MIN <= tone <= RISK_MAX", "RISK_MIN <= tone < RISK_MAX",
           ("tests/test_core.py::TestTone::test_top_of_scale_in_high_band",)),
    Mutant("Medium character urgent", "core.py",
           "PolicyRow(6.0, Character.ALERT,", "PolicyRow(6.0, Character.URGENT,",
           (_POLICY + "test_character_mapping",)),
    Mutant("output memo key drops the score's sign", "core.py",
           "math.copysign(1.0, value)", "1.0",
           ("tests/test_core.py::TestAssembleOutput::test_signed_zero_risks_serialize_apart",)),
    Mutant("dispatch delivers on every channel", "dispatch.py",
           "for channel in recipients:\n        sink = sinks[channel]",
           "for channel in CHANNEL_ORDER:\n        sink = sinks[channel]",
           ("tests/test_dispatch.py::TestRoutesFromTheOutput",)),
    Mutant("delivery memo key drops the tick", "dispatch.py",
           "key = (self.channel, tick, detail)", "key = (self.channel, detail)", _DELIVERY_MEMO),
    Mutant("delivery memo key drops the channel", "dispatch.py",
           "key = (self.channel, tick, detail)", "key = (tick, detail)", _DELIVERY_MEMO),
    Mutant("engine records every channel", "engine.py",
           "output.recipients, t_total,", "tuple(Channel), t_total,",
           ("tests/test_engine.py::TestStep::test_assembled_record_keeps_the_outputs_recipients",
            "tests/test_engine.py::TestStep::test_fallback_record_keeps_the_outputs_recipients")),
    Mutant("High fallback alert drops the alarm", "engine.py",
           '"the area as hazardous and keep clear; alarm activated and "',
           '"the area as hazardous and keep clear; "',
           ("tests/test_engine.py::TestStep::"
            "test_fallback_text_mentions_the_alarm_exactly_when_it_sounds",)),
    Mutant("cold-start fallback grades High", "engine.py",
           "else Criticality.MEDIUM", "else Criticality.HIGH",
           ("tests/test_engine.py::TestStep::test_fallback_cold_start_is_medium",)),
    Mutant("verdict exactly at the budget falls back", "engine.py",
           "elif t_total > self.config.t_max:", "elif t_total >= self.config.t_max:",
           ("tests/test_engine.py::TestStep::"
            "test_verdict_exactly_at_the_budget_is_not_a_fallback",)),
    Mutant("no-hazard step charged t_comm", "engine.py",
           "if timers.t_comm:", "if False:",
           ("tests/test_engine.py::TestStepBranchesWithCommTime::"
            "test_no_hazard_charges_no_comm_time",)),
    Mutant("late verdict's grade forgotten", "engine.py",
           "self.last_known_criticality = band_risk(assessment.risk)", "pass",
           ("tests/test_engine.py::TestStepBranchesWithCommTime::"
            "test_late_verdict_alerts_from_the_previous_grade",)),
    Mutant("suite loss keeps only the last scenario's terms", "harness.py",
           "l_hazard += hazard\n            l_fatigue += fatigue",
           "l_hazard = hazard\n            l_fatigue = fatigue",
           ("tests/test_harness.py::TestRunSuite::"
            "test_suite_loss_is_the_sum_of_its_scenarios_losses",)),
    Mutant("Medium severity weight 1", "metrics.py",
           "Criticality.MEDIUM: 2.0,", "Criticality.MEDIUM: 1.0,",
           ("tests/test_metrics.py::TestObjectiveLoss::test_severity_weights",)),
    Mutant("detection ignores the grade", "metrics.py",
           "and record.criticality is expected.criticality", "and True",
           ("tests/test_metrics.py::TestDetectionAccuracy::test_grade_mismatch_counts_zero",)),
    Mutant("effectiveness unclamped", "metrics.py",
           "return min(1.0, max(0.0, value))", "return value",
           ("tests/test_metrics.py::TestEffectiveness::"
            "test_weights_over_one_within_tolerance_score_at_most_one",)),
    Mutant("oracle bands 5.0-5.5 as Low", "oracle.py",
           "if rho < 5.0:", "if rho < 5.5:", _ORACLE),
    Mutant("oracle bands 8.0 as Medium", "oracle.py",
           "if rho < 8.0:", "if rho <= 8.0:", _ORACLE),
    Mutant("oracle's Medium character urgent", "oracle.py",
           '"Medium": "alert"', '"Medium": "urgent"', _ORACLE),
    Mutant("oracle's Medium route nearby alone", "oracle.py",
           '"Medium": ["nearby", "remote"],', '"Medium": ["nearby"],', _ORACLE),
    Mutant("oracle's alarm only on High", "oracle.py",
           'band != "Low"', 'band == "High"', _ORACLE),
    Mutant("oracle's band rule dropped", "oracle.py", "if k != band:", "if False:", _ORACLE),
    Mutant("oracle's tone rule dropped", "oracle.py",
           'if record["gamma"] != rho:', "if False:", _ORACLE),
    Mutant("oracle's no-hazard alarm rule dropped", "oracle.py",
           'if record["alarm"] is not False:', "if False:",
           ("tests/test_oracle.py::TestPlantedCorruptions::"
            "test_no_hazard_record_with_alarm_detected",)),
    Mutant("oracle's no-hazard recipient rule dropped", "oracle.py",
           "if recipients:", "if False:", _ORACLE),
    Mutant("weighted draw scaled by the first weight", "scenarios.py",
           "draw() * total", "draw() * cum[0]", (_DRAW,)),
    Mutant("weighted draw takes a second random()", "scenarios.py",
           "draw() * total", "draw() * draw() * total", (_DRAW,)),
    Mutant("generated entities rebuilt per observation", "scenarios.py",
           "view[1].format(phrase), view[0],",
           "view[1].format(phrase), tuple(Entity(e.object_label, e.attribute) "
           "for e in view[0]),", _SHARED),
    Mutant("generated contexts rebuilt per observation", "scenarios.py",
           "contexts[crowd])",
           "EnvContext(contexts[crowd].location_type, contexts[crowd].crowd_density))", _SHARED),
    Mutant("generated step key drops the step index", "scenarios.py",
           "key = (t, id(view),", "key = (id(view),", _PLAIN),
    Mutant("generated step key drops the crowd", "scenarios.py",
           "id(place), crowd)", "id(place))", _PLAIN),
    Mutant("index draw keeps an index equal to the bound", "scenarios.py",
           "while r >= n:", "while r > n:", (_INDEX,)),
    Mutant("generated truth rebuilt per step", "scenarios.py",
           "else truths[id(assessment)]", "else _step_truth(assessment)", _SHARED),
    Mutant("equal rule truths kept apart", "scenarios.py",
           "= shared.setdefault(truth, truth)", "= truth", _SHARED),
    Mutant("generate takes a bool count", "scenarios.py",
           "if isinstance(n, bool) or not isinstance(n, int) or n < 1:",
           "if not isinstance(n, int) or n < 1:",
           (_GENERATE + "::test_n_must_be_a_positive_int",)),
    Mutant("mix takes a bool number", "scenarios.py",
           "if isinstance(value, bool) or not isinstance(value, (int, float)):",
           "if not isinstance(value, (int, float)):", (_GENERATE,)),
    Mutant("package init imports every module eagerly", "__init__.py",
           "sys.modules[__name__].__class__ = _Package",
           "sys.modules[__name__].__class__ = _Package\nfor _name in __all__:\n"
           "    __getattr__(_name)", ("tests/test_package.py",)),
)


def problems() -> list[str]:
    """Why each mutant that does not apply cannot: its old text must occur
    exactly once in its file, and the modules of its tests must exist."""
    found = []
    for mutant in MUTANTS:
        count = (ROOT / "src" / "hazcom" / mutant.file).read_text("utf-8").count(mutant.old)
        if count != 1:
            found.append(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
        found += [f"{mutant.name}: no test module {test}" for test in mutant.tests
                  if not (ROOT / test.partition("::")[0]).is_file()]
    return found


def run(src: Path, *args: str) -> int:
    """The exit code of Python run with ``args`` against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for the tests against the package under ``src``."""
    return run(src, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-k", DESELECT, *tests)


def main() -> int:
    broken = problems()
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 2
    all_tests = sorted({test for m in MUTANTS for test in m.tests})
    code = run_tests(ROOT / "src", all_tests)
    if code != 0:
        print(f"the unmutated sources fail {' '.join(all_tests)} (pytest exit {code})",
              file=sys.stderr)
        return 2
    survivors, unjudged = [], []
    with tempfile.TemporaryDirectory(prefix="hazcom-mutant-") as tmp:
        for mutant in MUTANTS:
            src = Path(tmp) / "src"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = src / "hazcom" / mutant.file
            path.write_text(path.read_text("utf-8").replace(mutant.old, mutant.new), "utf-8")
            code = run_tests(src, mutant.tests)
            if code in KILLED:
                print(f"killed: {mutant.name}", flush=True)
            elif code == 4 and run(src, "-c", "import hazcom.cli") != 0:
                print(f"killed at import: {mutant.name}", flush=True)
            elif code == 0:
                print(f"SURVIVED: {mutant.name}", flush=True)
                survivors.append(mutant.name)
            else:
                print(f"NOT JUDGED (pytest exit {code}): {mutant.name}", flush=True)
                unjudged.append(mutant.name)
    if unjudged:
        print(f"{len(unjudged)} of {len(MUTANTS)} mutants were judged by no test: "
              f"{', '.join(unjudged)}", file=sys.stderr)
        return 2
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}",
              file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
