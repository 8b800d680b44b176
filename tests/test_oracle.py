import hashlib
import random
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazcom import (
    Channel,
    Feasibility,
    HazardCategory,
    RiskScore,
    ScriptedBackend,
    TimeSensitivity,
    ValidationError,
    alarm_for,
    band_risk,
    builtin_suite,
    character_for,
    oracle_verify,
    recipients_for,
    run_suite,
    tone_for,
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
    elif field in ("category", "tau", "phi"):
        tampered[field] = rng.choice(["NotALabel", "low", "", 3, ["Waste"]])
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


_ENUM_NAMES = {"category": "HazardCategory", "tau": "TimeSensitivity", "phi": "Feasibility"}


class TestLabels:
    @pytest.mark.parametrize("field, value", [
        ("category", "NotACategory"), ("tau", "Whenever"), ("phi", "Nope"),
        ("category", "waste"), ("tau", 1), ("phi", ["Robot"]), ("category", {}),
    ])
    def test_unknown_label_on_a_hazard_record_is_a_violation(self, field, value):
        records = clean_records()
        target = next(r for r in records if r["k"] is not None)
        target[field] = value
        violations = oracle_verify(records)
        assert [(v.record_index, v.field, v.rule) for v in violations] == [
            (records.index(target), field, "label rule"),
        ]
        assert violations[0].detail.startswith(f"unknown {_ENUM_NAMES[field]} {value!r};")

    def test_every_known_label_and_null_pass(self):
        records = clean_records()
        target = next(r for r in records if r["k"] is not None)
        for field, enum in (("category", HazardCategory), ("tau", TimeSensitivity),
                            ("phi", Feasibility)):
            for value in (None, *(member.value for member in enum)):
                assert oracle_verify([dict(target, **{field: value})]) == []
        del target["category"]
        assert oracle_verify([target]) == []


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
        fields = ["alarm", "recipients", "chi", "gamma", "k", "category", "tau", "phi"]
        detected = 0
        for _ in range(1000):
            records = [dict(r) for r in base]
            index = rng.choice(hazard_indices)
            field = rng.choice(fields)
            records[index] = corrupt(records[index], field, rng)
            if oracle_verify(records):
                detected += 1
        assert detected == 1000


class _ReadOnlyRecord(Mapping):
    """A wire record behind the abstract Mapping interface only."""

    def __init__(self, doc):
        self._doc = dict(doc)

    def __getitem__(self, key):
        return self._doc[key]

    def __iter__(self):
        return iter(self._doc)

    def __len__(self):
        return len(self._doc)


_NAN, _INF = float("nan"), float("inf")
# Values of the wrong JSON type, or at an edge, for fields with no label.
_ODD_VALUES = [
    None, True, False, 0, 1, -1, 7, 10**30, 2.5, -0.0, _NAN, _INF, -_INF,
    "", "x", "Low", [], ["nearby"], {}, {"a": 1},
]
# Label fields keep valid labels (or null): the verdict on an unknown
# category, tau or phi label is its own test below.
_LABEL_VALUES = {
    "category": [None, *(member.value for member in HazardCategory)],
    "tau": [None, *(member.value for member in TimeSensitivity)],
    "phi": [None, *(member.value for member in Feasibility)],
}
_FIELD_VALUES = {
    "tick": [0, 5, -3, 10**30, True, 1.0, 1.7, "0", None],
    "obs_id": ["a:0", "", 5, None, ["a"]],
    "d": [None, *K_VALUES, 3, [], "low"],
    "rho": [0.0, -0.0, 4.999, 5.0, 7.999, 8.0, 10.0, 0, 5, 8, 10, 11, -1, 10.0001,
            -0.1, 1e300, 10**30, _NAN, _INF, -_INF, True, "nine", None, [5.0]],
    "k": [None, *K_VALUES, "Urgent", 2, [], {}],
    "gamma": [0.0, -0.0, 5.0, 9.0, 5, _NAN, _INF, True, "5.0", None, [1.0]],
    "chi": [None, *CHI_VALUES, "Alert", 1, []],
    "alarm": [True, False, 0, 1, "yes", None],
    "recipients": [
        *RECIPIENT_SETS, [], ["remote", "nearby"], ["nearby", "nearby"],
        ["nearby", "remote", "remote"], ("nearby",), ("nearby", "remote"),
        ["nearby", "bogus"], ["coordination"], "nearby", None, [1], [None], {"nearby": 1},
    ],
    "t_total": [0, 120, 370, True, 12.0, "120", None],
    "fallback": [True, False, 0, 1, "no", None],
    "text": ["Careful.", "", None, 5, ["t"]],
    **_LABEL_VALUES,
}
_BANDS = [(5.0, "Low"), (8.0, "Medium"), (_INF, "High")]
# The numeric scores, band edges included, a record may be re-scored to.
_SCORES = [rho for rho in _FIELD_VALUES["rho"] if type(rho) in (int, float)]
# Each policy field's canonical value per band, in K_VALUES order.
_BY_GRADE = {"k": K_VALUES, "chi": CHI_VALUES, "alarm": [False, True, True],
             "recipients": RECIPIENT_SETS}


def _coherent(record, rho, grade=None):
    """The record re-scored to ``rho``, every policy field following its
    band, or the band ``grade`` indexes in ``K_VALUES``."""
    if grade is None:
        grade = K_VALUES.index(next((name for limit, name in _BANDS if rho < limit), "High"))
    band = K_VALUES[grade]
    return {**record, "rho": rho, "gamma": rho, "k": band, "chi": CHI_VALUES[grade],
            "alarm": band != "Low", "recipients": list(RECIPIENT_SETS[grade])}


def _mutated(record, rng):
    """One corrupted copy of ``record``: one to four fields changed,
    re-scored coherently, a key dropped, or the whole record replaced."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice(["nope", 5, None, [], ("tick",)])
    tampered = dict(record)
    if roll < 0.10:
        del tampered[rng.choice(list(tampered))]
    elif roll < 0.20:
        tampered = _coherent(tampered, rng.choice([0, 4, 5, 7.5, 8, 10, -0.0, 4.999, 9.5]))
        if rng.random() < 0.5:
            tampered["d"] = rng.choice([None, tampered["k"]])
    else:
        for field in rng.sample(list(_FIELD_VALUES), rng.choice([1, 1, 1, 2, 3, 4])):
            pool = _FIELD_VALUES[field] if rng.random() < 0.8 else _ODD_VALUES
            if field in _LABEL_VALUES:
                pool = _LABEL_VALUES[field]
            tampered[field] = rng.choice(pool)
    roll = rng.random()
    if roll < 0.05:
        return MappingProxyType(tampered)
    if roll < 0.10:
        return _ReadOnlyRecord(tampered)
    return tampered


def _verdict_lines(base, seed, cases):
    """One line per violation, or per raised message, over ``cases`` traces."""
    rng = random.Random(seed)
    lines = []
    for case in range(cases):
        trace = [dict(r) for r in rng.sample(base, rng.choice([1, 2, 3]))]
        for position in rng.sample(range(len(trace)), rng.choice([1, 1, len(trace)])):
            trace[position] = _mutated(trace[position], rng)
        try:
            outcome = [str(v) for v in oracle_verify(trace)]
        except ValidationError as exc:
            outcome = [f"raised: {exc}"]
        lines.append(f"case {case}: {len(outcome)}")
        lines.extend(outcome)
    return lines


class TestVerdictCorpus:
    # SHA-256 of the verdict lines of the seeded corpus, recorded with the
    # rule-by-rule checker alone; the fast path for compliant records must
    # not move a single violation, message or raised error.
    DIGEST = "75877f154d8258e6433142989e7e0663706d2778a8eeee38d0a3dc651be7c065"

    def test_corpus_verdicts_match_recorded_digest(self):
        lines = _verdict_lines(clean_records(), seed=2026, cases=3000)
        assert sum(line.startswith("raised:") for line in lines) > 100
        assert sum(line.startswith("record ") for line in lines) > 3000
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST


_CLEAN = tuple(clean_records())
_LABELS = [label for pool in _LABEL_VALUES.values() for label in pool]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
    | st.sampled_from([*K_VALUES, *CHI_VALUES, *_LABELS, "nearby", "remote", "NotALabel"])
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)


@st.composite
def _mutated_records(draw):
    """A clean record re-graded or with some fields replaced, perhaps with
    a key dropped."""
    record = dict(draw(st.sampled_from(_CLEAN)))
    if draw(st.booleans()):
        # Re-scored, the policy fields following the score's band or another
        # one, as a wrong threshold would grade them; then one field follows
        # any band, as a wrong table entry would give it.
        rho = draw(st.sampled_from(_SCORES) | st.floats(0.0, 10.0))
        record = _coherent(record, rho, draw(st.none() | st.integers(0, 2)))
        field = draw(st.sampled_from(sorted(_BY_GRADE)))
        record[field] = _BY_GRADE[field][draw(st.integers(0, 2))]
    else:
        for field in draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), max_size=4,
                                   unique=True)):
            record[field] = draw(st.sampled_from(_FIELD_VALUES[field]) | _JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        del record[draw(st.sampled_from(sorted(record)))]
    return record


class TestOracleAgreesWithCore:
    """The oracle's restatement of the policy against core's own."""

    @settings(max_examples=600, deadline=None)
    @given(_mutated_records())
    def test_accepted_record_is_what_core_derives(self, record):
        try:
            violations = oracle_verify([record])
        except ValidationError:
            return
        if violations:
            return
        if record["k"] is None:
            assert record["alarm"] is False
            assert list(record["recipients"]) == []
            return
        risk = RiskScore(record["rho"])
        band = band_risk(risk)
        assert record["k"] == band.value
        assert record["chi"] == character_for(band).value
        assert record["alarm"] is alarm_for(band)
        assert record["gamma"] == tone_for(risk)
        assert {Channel(c) for c in record["recipients"]} == recipients_for(band)
