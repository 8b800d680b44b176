"""Independent trace verifier.

Re-derives every policy output (band, tone, character, alarm, recipients)
from the recorded risk score alone, using literal thresholds and tables --
deliberately not the implementation in :mod:`hazcom.core` -- and reports
every mismatch.  Works on raw wire-level dicts so serialization bugs are
caught too: the required keys and the JSON type of each scalar come from
the trace format's own table, ``TRACE_FIELDS``, the one
:func:`hazcom.engine.read_trace` applies, and each label the reader decodes
is checked against the reader's label dicts.

Each rule compares the recorded value with the canonical one and works
out its violation only when they differ.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .core import ValidationError
from .engine import _LABELS, TRACE_FIELDS


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
# Each required key in table order; a scalar comes with the JSON types the
# wire-type rule allows and how its messages name them.  A label field has
# no types here, as it has rules of its own, and the optional text is the
# message rule's.
_REQUIRED_FIELDS = tuple(
    (f.key, f.types if f.enum is None else (), f.what) for f in TRACE_FIELDS if f.required
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
        found = _check_record(index, record)
        if found:
            violations += found
    return violations


def _check_record(index: int, record: object) -> tuple[Violation, ...]:
    """Every rule ``record`` breaks, one violation each, or the error a
    structurally broken record raises.

    Each rule first compares the recorded value with the canonical one
    (a float score in range, the route list in the engine's order, a known
    label) and works out its violation only when they differ, so a
    compliant record allocates nothing: its verdict is the empty tuple.
    Every path that does not find the canonical recipients for its band
    tests their shape, which raises before any other verdict counts.
    """
    if type(record) is not dict:
        if not isinstance(record, Mapping):
            raise _malformed(index, "not an object")
        # A plain dict's subscript raises KeyError for every absent key; a
        # subclass's __missing__ need not.
        record = dict(record)
    found: tuple[Violation, ...] = ()
    # Reading every required key is the missing-field test.
    try:
        for key, types, what in _REQUIRED_FIELDS:
            value = record[key]
            if types and type(value) not in types:
                found += (Violation(
                    index, key, "wire-type rule", f"must be {what}, got {value!r}"
                ),)
    except KeyError:
        missing = [key for key in _REQUIRED_KEYS if key not in record]
        raise _malformed(index, f"missing fields {missing}") from None
    k, recipients = record["k"], record["recipients"]
    if k is None:
        if record["alarm"] is not False:
            found += (Violation(
                index, "alarm", "alarm rule",
                "alarm must be off when no hazard is recorded",
            ),)
        if recipients != []:
            _check_recipients_shape(index, recipients)
            if recipients:
                found += (Violation(
                    index, "recipients", "recipient-routing rule",
                    "no recipients are allowed without a hazard",
                ),)
        for field_name in _POLICY_FIELDS_WHEN_ABSENT:
            if record.get(field_name) is not None:
                found += (Violation(
                    index, field_name, "no-hazard record rule",
                    f"{field_name} must be null when no hazard is recorded",
                ),)
        return found

    for field_name, labels, enum_name in _LABEL_FIELDS:
        value = record.get(field_name)
        try:
            if value in labels:
                continue
        except TypeError:  # an unhashable value is no label
            pass
        valid = ", ".join(label for label in labels if label is not None)
        found += (Violation(
            index, field_name, "label rule",
            f"unknown {enum_name} {value!r}; expected one of: {valid} or null",
        ),)
    rho = record["rho"]
    if type(rho) is not float or not 0.0 <= rho <= 10.0:
        if not isinstance(rho, (int, float)) or isinstance(rho, bool):
            found += (Violation(
                index, "rho", "score-range rule", f"score must be a number, got {rho!r}"
            ),)
            _check_recipients_shape(index, recipients)
            return found  # no band without a score
        if not (0.0 <= rho <= 10.0):
            found += (Violation(
                index, "rho", "score-range rule", f"score {rho} outside [0, 10]"
            ),)
            _check_recipients_shape(index, recipients)
            return found  # banding is meaningless for an out-of-range score

    band = _expected_band(rho)
    if k != band:
        found += (Violation(
            index, "k", "risk-band rule", f"score {rho} bands to {band}, recorded {k!r}",
        ),)
    if record["gamma"] != rho:
        found += (Violation(
            index, "gamma", "tone-coupling rule",
            f"tone must equal the score {rho}, recorded {record['gamma']!r}",
        ),)
    if record["chi"] != _CHARACTER_TABLE[band]:
        found += (Violation(
            index, "chi", "character rule",
            f"{band} requires character "
            f"{_CHARACTER_TABLE[band]!r}, recorded {record['chi']!r}",
        ),)
    alarm, expected_alarm = record["alarm"], band != "Low"
    if alarm is not expected_alarm and bool(alarm) is not expected_alarm:
        found += (Violation(
            index, "alarm", "alarm rule",
            f"{band} requires alarm={expected_alarm}, recorded {alarm!r}",
        ),)
    if recipients != _ROUTES[band]:
        _check_recipients_shape(index, recipients)
        route = _RECIPIENTS_TABLE[band]
        if len(set(recipients)) != len(recipients):
            found += (Violation(
                index, "recipients", "recipient-routing rule",
                f"duplicate channels in {list(recipients)}",
            ),)
        elif set(recipients) != route:
            found += (Violation(
                index, "recipients", "recipient-routing rule",
                f"{band} routes to {sorted(route)}, recorded {sorted(map(str, recipients))}",
            ),)
    d = record["d"]
    if d is not None and d != band:
        found += (Violation(
            index, "d", "factor-band coherence rule",
            f"declared level {d!r} disagrees with score band {band}",
        ),)
    text = record.get("text")
    if text is not None and (not isinstance(text, str) or not text):
        found += (Violation(
            index, "text", "message rule", "message text must be non-empty",
        ),)
    return found


def _check_recipients_shape(index: int, recipients: object) -> None:
    if not isinstance(recipients, (list, tuple)) or not all(
        map(str.__instancecheck__, recipients)
    ):
        raise _malformed(index, "'recipients' must be a list of strings")
