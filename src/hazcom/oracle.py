"""Independent trace verifier.

Re-derives every policy output (band, tone, character, alarm, recipients)
from the recorded risk score alone, using literal thresholds and tables --
deliberately not the implementation in :mod:`hazcom.core` -- and reports
every mismatch.  Works on raw wire-level dicts so serialization bugs are
caught too.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .core import ValidationError


@dataclass(frozen=True)
class Violation:
    record_index: int
    field: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"record {self.record_index}: [{self.rule}] {self.field}: {self.detail}"


_REQUIRED_KEYS = (
    "tick", "obs_id", "d", "tau", "phi", "rho", "k", "gamma", "chi",
    "alarm", "recipients", "t_total", "fallback",
)
_REQUIRED_KEY_SET = frozenset(_REQUIRED_KEYS)

_POLICY_FIELDS_WHEN_ABSENT = ("category", "d", "tau", "phi", "rho", "gamma", "chi")

_RECIPIENTS_TABLE = {
    "Low": frozenset({"nearby"}),
    "Medium": frozenset({"nearby", "remote"}),
    "High": frozenset({"nearby", "remote", "coordination"}),
}

_CHARACTER_TABLE = {"Low": "inquiry", "Medium": "alert", "High": "urgent"}


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
        if not isinstance(record, Mapping):
            raise _malformed(index, "not an object")
        if not _REQUIRED_KEY_SET <= record.keys():
            missing = [key for key in _REQUIRED_KEYS if key not in record]
            raise _malformed(index, f"missing fields {missing}")
        recipients = record["recipients"]
        if not isinstance(recipients, (list, tuple)) or not all(
            isinstance(channel, str) for channel in recipients
        ):
            raise _malformed(index, "'recipients' must be a list of strings")
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
    rho = record["rho"]
    if not isinstance(rho, (int, float)) or isinstance(rho, bool):
        raise _malformed(index, f"'rho' must be a number, got {rho!r}")
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
