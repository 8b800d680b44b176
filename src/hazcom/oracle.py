"""Independent trace verifier.

Re-derives every policy output (band, tone, character, alarm, recipients)
from the recorded risk score alone, using literal thresholds and tables --
deliberately not the implementation in :mod:`hazcom.core` -- and reports
every mismatch.  Works on raw wire-level dicts so serialization bugs are
caught too: the required keys and the JSON type of each scalar come from
the trace format's own table, ``TRACE_FIELDS``, the one
:func:`hazcom.engine.read_trace` applies, and each label the reader decodes
is checked against the reader's label dicts.

A compliant record is recognised by one conjunction over these tables;
only a record it does not accept goes through the rule-by-rule checks,
which build the violations.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .core import ValidationError
from .engine import _LABELS, _REQUIRED_WIRE_KEYS, TRACE_FIELDS


@dataclass(frozen=True)
class Violation:
    record_index: int
    field: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"record {self.record_index}: [{self.rule}] {self.field}: {self.detail}"


# The required keys in table order, the order missing-field messages use.
_REQUIRED_KEYS = tuple(f.key for f in TRACE_FIELDS if f.required)
# The wire-type rule's scalars, each with its JSON types and how messages
# name them: the required ones (the optional text is the message rule's).
_WIRE_SCALAR_TYPES = tuple(
    (f.key, f.types, f.what) for f in TRACE_FIELDS if f.enum is None and f.required
)

_POLICY_FIELDS_WHEN_ABSENT = ("category", "d", "tau", "phi", "rho", "gamma", "chi")

# The routes in the order the engine records them; a record is checked
# against their sets, in any order.
_ROUTES = {
    "Low": ["nearby"],
    "Medium": ["nearby", "remote"],
    "High": ["nearby", "remote", "coordination"],
}
_RECIPIENTS_TABLE = {band: frozenset(route) for band, route in _ROUTES.items()}

_CHARACTER_TABLE = {"Low": "inquiry", "Medium": "alert", "High": "urgent"}

# Label fields with no rule of their own, each with the label dict the trace
# reader decodes it by (null included) and the name its messages give.
_LABEL_FIELDS = tuple(
    (f.key, _LABELS[f.key], f.enum.__name__)
    for f in TRACE_FIELDS if f.key in ("category", "tau", "phi")
)
_CATEGORIES, _TIME_SENSITIVITIES, _FEASIBILITIES = (labels for _, labels, _ in _LABEL_FIELDS)


def _expected_band(rho: float) -> str:
    if rho < 5.0:
        return "Low"
    if rho < 8.0:
        return "Medium"
    return "High"


def _malformed(index: int, why: str) -> ValidationError:
    return ValidationError(f"malformed trace record {index}: {why}")


def oracle_verify(records: Iterable[Mapping]) -> list[Violation]:
    """Check every record against the policy, recomputed from the score.

    Returns one violation per broken rule; an empty list means the trace is
    fully compliant.  Structurally broken records raise instead.
    """
    violations: list[Violation] = []
    for index, record in enumerate(records):
        if not _compliant(record):
            violations.extend(_check_record(index, record))
    return violations


def _compliant(record: object) -> bool:
    """Whether ``record`` is a wire dict that breaks no rule.

    One conjunction over the same tables the rule-by-rule checks use, which
    builds nothing; it accepts only canonical values (a float score, the
    route list in the engine's order, a ``str`` text), so a compliant record
    written otherwise is left to the checks, which find nothing.  Accepting
    a record the checks would fault is the one thing it must never do.
    """
    if type(record) is not dict:
        return False
    try:
        for key, types, _ in _WIRE_SCALAR_TYPES:
            if type(record[key]) not in types:
                return False
        recipients, rho = record["recipients"], record["rho"]
        if record["k"] is None:
            return (
                record["alarm"] is False and type(recipients) is list and not recipients
                and record.get("category") is None and record["d"] is None
                and record["tau"] is None and record["phi"] is None and rho is None
                and record["gamma"] is None and record["chi"] is None
            )
        if type(rho) is not float or not 0.0 <= rho <= 10.0:
            return False
        band, d, text = _expected_band(rho), record["d"], record.get("text")
        return (
            record["k"] == band and record["gamma"] == rho
            and record["chi"] == _CHARACTER_TABLE[band]
            and record["alarm"] is (band != "Low") and recipients == _ROUTES[band]
            and (d is None or d == band) and (text is None or type(text) is str and text != "")
            and record.get("category") in _CATEGORIES
            and record["tau"] in _TIME_SENSITIVITIES and record["phi"] in _FEASIBILITIES
        )
    except (KeyError, TypeError):  # a missing field or an unhashable label
        return False


def _check_record(index: int, record: object) -> list[Violation]:
    """Every rule ``record`` breaks, one violation each, or the error a
    structurally broken record raises."""
    # Wire records are dicts; testing for dict first costs a fifth of
    # the abstract Mapping test.
    if not isinstance(record, dict) and not isinstance(record, Mapping):
        raise _malformed(index, "not an object")
    if not _REQUIRED_WIRE_KEYS <= record.keys():
        missing = [key for key in _REQUIRED_KEYS if key not in record]
        raise _malformed(index, f"missing fields {missing}")
    recipients = record["recipients"]
    if not isinstance(recipients, (list, tuple)) or not all(
        map(str.__instancecheck__, recipients)
    ):
        raise _malformed(index, "'recipients' must be a list of strings")
    violations = [
        Violation(index, key, "wire-type rule", f"must be {what}, got {record[key]!r}")
        for key, types, what in _WIRE_SCALAR_TYPES
        if type(record[key]) not in types
    ]
    if record["k"] is None:
        violations.extend(_verify_no_hazard(index, record))
    else:
        violations.extend(_verify_hazard(index, record))
    return violations


def _verify_no_hazard(index: int, record: Mapping) -> list[Violation]:
    out = []
    if record["alarm"] is not False:
        out.append(Violation(
            index, "alarm", "alarm rule",
            "alarm must be off when no hazard is recorded",
        ))
    if list(record["recipients"]):
        out.append(Violation(
            index, "recipients", "recipient-routing rule",
            "no recipients are allowed without a hazard",
        ))
    for field_name in _POLICY_FIELDS_WHEN_ABSENT:
        if record.get(field_name) is not None:
            out.append(Violation(
                index, field_name, "no-hazard record rule",
                f"{field_name} must be null when no hazard is recorded",
            ))
    return out


def _verify_hazard(index: int, record: Mapping) -> list[Violation]:
    out = []
    for field_name, labels, enum_name in _LABEL_FIELDS:
        value = record.get(field_name)
        try:
            known = value in labels
        except TypeError:  # an unhashable value is no label
            known = False
        if not known:
            valid = ", ".join(label for label in labels if label is not None)
            out.append(Violation(
                index, field_name, "label rule",
                f"unknown {enum_name} {value!r}; expected one of: {valid} or null",
            ))
    rho = record["rho"]
    if not isinstance(rho, (int, float)) or isinstance(rho, bool):
        out.append(Violation(
            index, "rho", "score-range rule", f"score must be a number, got {rho!r}"
        ))
        return out  # no band without a score
    if not (0.0 <= rho <= 10.0):
        out.append(Violation(
            index, "rho", "score-range rule", f"score {rho} outside [0, 10]"
        ))
        return out  # banding is meaningless for an out-of-range score

    expected_k = _expected_band(float(rho))
    if record["k"] != expected_k:
        out.append(Violation(
            index, "k", "risk-band rule",
            f"score {rho} bands to {expected_k}, recorded {record['k']!r}",
        ))
    if record["gamma"] != rho:
        out.append(Violation(
            index, "gamma", "tone-coupling rule",
            f"tone must equal the score {rho}, recorded {record['gamma']!r}",
        ))
    if record["chi"] != _CHARACTER_TABLE[expected_k]:
        out.append(Violation(
            index, "chi", "character rule",
            f"{expected_k} requires character "
            f"{_CHARACTER_TABLE[expected_k]!r}, recorded {record['chi']!r}",
        ))
    expected_alarm = expected_k != "Low"
    if bool(record["alarm"]) is not expected_alarm:
        out.append(Violation(
            index, "alarm", "alarm rule",
            f"{expected_k} requires alarm={expected_alarm}, "
            f"recorded {record['alarm']!r}",
        ))
    recipients = list(record["recipients"])
    if len(set(recipients)) != len(recipients):
        out.append(Violation(
            index, "recipients", "recipient-routing rule",
            f"duplicate channels in {recipients}",
        ))
    elif set(recipients) != _RECIPIENTS_TABLE[expected_k]:
        out.append(Violation(
            index, "recipients", "recipient-routing rule",
            f"{expected_k} routes to {sorted(_RECIPIENTS_TABLE[expected_k])}, "
            f"recorded {sorted(map(str, recipients))}",
        ))
    if record["d"] is not None and record["d"] != expected_k:
        out.append(Violation(
            index, "d", "factor-band coherence rule",
            f"declared level {record['d']!r} disagrees with score band "
            f"{expected_k}",
        ))
    text = record.get("text")
    if text is not None and (not isinstance(text, str) or not text):
        out.append(Violation(
            index, "text", "message rule", "message text must be non-empty",
        ))
    return out
