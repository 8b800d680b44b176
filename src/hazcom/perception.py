"""Perception backends.

One call maps an Observation to an optional HazardAssessment.  Four
implementations share that contract:

* ``ScriptedBackend``: deterministic first-match rule table (the reference
  context-aware policy),
* ``ObjectBaselineBackend``: fixed criticality by object identity alone,
* ``LocationBaselineBackend``: fixed criticality by location alone,
* ``RemoteBackend``: JSON-over-HTTP client with a hard deadline.

``with_fault_injection`` wraps any backend with seeded delays and failures
for exercising the engine's budget/fallback path.

Rule matches, object identities and the built-in backends' verdicts are
memoized in bounded caches; a verdict is shared between callers and is
immutable.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fnmatch import translate
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Protocol

from . import _http
from .clock import Clock, ticks_to_seconds
from .core import (
    Criticality,
    ContextFactors,
    CrowdDensity,
    EnvContext,
    Feasibility,
    HazardCategory,
    LocationType,
    REPRESENTATIVE_RISK,
    RiskScore,
    TimeSensitivity,
    ValidationError,
    ConfigurationError,
    band_risk,
    enum_from_label,
)


class BackendError(Exception):
    """A backend failed to produce an assessment (never means "no hazard")."""


class BackendTimeout(BackendError):
    """The backend did not answer within its deadline."""


class BackendTransportError(BackendError):
    """The backend could not be reached or the transport failed mid-call."""


class BackendResponseError(BackendError, ValidationError):
    """The backend answered, but the response is malformed or invalid."""


class InjectedFault(BackendError):
    """Deliberate failure raised by the fault-injection wrapper."""


#: Entries each perception memo keeps at most: a rule table's matches, the
#: shared verdicts, and the baselines' object identities.
MEMO_SIZE = 1024


@dataclass(frozen=True)
class Entity:
    """A salient detection: an object label plus one descriptive attribute."""

    object_label: str
    attribute: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.object_label, str) or not isinstance(self.attribute, str):
            raise ValidationError(
                f"entity label and attribute must be strings, got "
                f"{self.object_label!r}, {self.attribute!r}"
            )
        if not self.object_label:
            raise ValidationError("entity object_label must be non-empty")


@dataclass(frozen=True)
class Observation:
    """Symbolic scene snapshot handed to a backend.

    The caption stands in for the fused visual/linguistic description; the
    entity list may be empty when nothing salient is in view.
    """

    timestamp: int
    scene_caption: str
    salient_entities: tuple[Entity, ...]
    env: EnvContext

    def __post_init__(self) -> None:
        if not self.scene_caption:
            raise ValidationError("scene caption must be non-empty")
        if self.timestamp < 0:
            raise ValidationError(f"timestamp {self.timestamp} must be >= 0")
        object.__setattr__(self, "salient_entities", tuple(self.salient_entities))


@dataclass(frozen=True)
class HazardAssessment:
    """Backend verdict: category, context factors, risk score, rationale.

    The declared severity level must agree with the risk score's band; an
    incoherent pair is rejected at construction.
    """

    category: HazardCategory
    factors: ContextFactors
    risk: RiskScore
    rationale: str

    def __post_init__(self) -> None:
        if not self.rationale:
            raise ValidationError("assessment rationale must be non-empty")
        banded = band_risk(self.risk)
        if banded is not self.factors.criticality_level:
            raise ValidationError(
                f"risk {self.risk.value} bands to {banded.value} but the "
                f"declared level is {self.factors.criticality_level.value}"
            )


class Backend(Protocol):
    """Contract all perception implementations satisfy."""

    def assess(self, obs: Observation) -> Optional[HazardAssessment]: ...


# --------------------------------------------------------------------------
# Scripted rule-table backend


@dataclass(frozen=True)
class Emission:
    """What a matched rule reports: category, factor triple, and score."""

    category: HazardCategory
    level: Criticality
    time_sensitivity: TimeSensitivity
    feasibility: Feasibility
    risk: RiskScore


def _glob(pattern: str) -> Callable[[str], Optional[re.Match]]:
    """Compiled case-sensitive glob matcher, the same test as ``fnmatchcase``."""
    return re.compile(translate(pattern)).match


@dataclass(frozen=True)
class Rule:
    """One match row; ``emission=None`` marks the entity as benign."""

    object_pattern: str
    attribute_pattern: str
    location: LocationType | None
    crowd: CrowdDensity | None
    vulnerable: bool | None
    emission: Emission | None
    _object_match: Callable = field(init=False, repr=False, compare=False)
    _attribute_match: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_object_match", _glob(self.object_pattern))
        object.__setattr__(self, "_attribute_match", _glob(self.attribute_pattern))

    def matches(self, entity: Entity, env: EnvContext) -> bool:
        if not self._object_match(entity.object_label.lower()):
            return False
        if not self._attribute_match(entity.attribute.lower()):
            return False
        if self.location is not None and env.location_type is not self.location:
            return False
        if self.crowd is not None and env.crowd_density is not self.crowd:
            return False
        if self.vulnerable is not None and env.vulnerable_present != self.vulnerable:
            return False
        return True


@dataclass(frozen=True)
class RuleTable:
    """Ordered first-match rules ending in a mandatory catch-all hazard rule.

    File format, one record per line (``#`` comments allowed)::

        <object-pattern>|<attribute-pattern>|<location|*>|<crowd|*>|<vulnerable|*> \
            => <category>,<d>,<tau>,<phi>,<rho>

    ``=> none`` marks matching entities as benign.  Every hazard emission
    must be band-coherent: its score must band to its declared level.
    """

    rules: tuple[Rule, ...]
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ConfigurationError("rule table must not be empty")
        last = self.rules[-1]
        catch_all = (
            last.object_pattern == "*"
            and last.attribute_pattern == "*"
            and last.location is None
            and last.crowd is None
            and last.vulnerable is None
        )
        if not catch_all or last.emission is None:
            raise ConfigurationError(
                "rule table must end with a catch-all default hazard rule"
            )

    def match(self, entity: Entity, env: EnvContext) -> Rule:
        """The first rule matching ``entity`` in ``env``.

        Memoized per table by everything a rule tests: the entity's label and
        attribute and the three context fields.  The memo keeps at most
        ``MEMO_SIZE`` entries and starts over when full; a context whose
        fields cannot be hashed is scanned without it.
        """
        key = (entity.object_label, entity.attribute,
               env.location_type, env.crowd_density, env.vulnerable_present)
        memo = self._memo
        try:
            rule = memo.get(key)
        except TypeError:  # an unhashable context field
            return self._scan(entity, env)
        if rule is None:
            rule = self._scan(entity, env)
            if len(memo) >= MEMO_SIZE:
                memo.clear()
            memo[key] = rule
        return rule

    def _scan(self, entity: Entity, env: EnvContext) -> Rule:
        for rule in self.rules:
            if rule.matches(entity, env):
                return rule
        raise AssertionError("unreachable: catch-all rule matches everything")

    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "RuleTable":
        rules: list[Rule] = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rules.append(_parse_rule(line, source, line_no))
        return cls(rules=tuple(rules))

    @classmethod
    def load(cls, path: str | Path) -> "RuleTable":
        path = Path(path)
        return cls.parse(path.read_text(encoding="utf-8"), source=str(path))


def _parse_rule(line: str, source: str, line_no: int) -> Rule:
    where = f"{source}:{line_no}"
    head, sep, tail = line.partition("=>")
    if not sep:
        raise ConfigurationError(f"{where}: missing '=>' separator")
    fields = [f.strip() for f in head.split("|")]
    if len(fields) != 5:
        raise ConfigurationError(
            f"{where}: expected 5 match fields "
            "'<object>|<attribute>|<location>|<crowd>|<vulnerable>'"
        )
    obj_pat, attr_pat, loc_tok, crowd_tok, vul_tok = fields
    if not obj_pat or not attr_pat:
        raise ConfigurationError(f"{where}: empty match pattern")
    try:
        location = None if loc_tok == "*" else enum_from_label(LocationType, loc_tok)
        crowd = None if crowd_tok == "*" else enum_from_label(CrowdDensity, crowd_tok)
    except ValidationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    if vul_tok == "*":
        vulnerable = None
    elif vul_tok.lower() in ("yes", "no"):
        vulnerable = vul_tok.lower() == "yes"
    else:
        raise ConfigurationError(
            f"{where}: vulnerable field must be 'yes', 'no', or '*', got {vul_tok!r}"
        )

    emit_tok = tail.strip()
    if emit_tok.lower() == "none":
        emission = None
    else:
        parts = [p.strip() for p in emit_tok.split(",")]
        if len(parts) != 5:
            raise ConfigurationError(
                f"{where}: emission must be '<category>,<d>,<tau>,<phi>,<rho>' or 'none'"
            )
        try:
            category = enum_from_label(HazardCategory, parts[0])
            level = enum_from_label(Criticality, parts[1])
            tau = enum_from_label(TimeSensitivity, parts[2])
            phi = enum_from_label(Feasibility, parts[3])
            risk = RiskScore(float(parts[4]))
        except (ValidationError, ValueError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc
        if band_risk(risk) is not level:
            raise ConfigurationError(
                f"{where}: score {risk.value} bands to {band_risk(risk).value}, "
                f"not the declared level {level.value}"
            )
        emission = Emission(category, level, tau, phi, risk)
    return Rule(
        object_pattern=obj_pat.lower(),
        attribute_pattern=attr_pat.lower(),
        location=location,
        crowd=crowd,
        vulnerable=vulnerable,
        emission=emission,
    )


@lru_cache(maxsize=1)
def builtin_rule_table() -> RuleTable:
    """The rule table shipped with the package."""
    text = resources.files("hazcom").joinpath("data/rules.txt").read_text("utf-8")
    return RuleTable.parse(text, source="builtin rules")


def scripted_assess(table: RuleTable, obs: Observation) -> Optional[HazardAssessment]:
    """Context-aware assessment via the rule table.

    Each entity takes its first matching rule; when several entities emit a
    hazard, the highest risk score wins (ties: earliest entity).  Total:
    returns None, never raises, for any well-formed observation.  Equal
    verdicts are one shared, immutable assessment.
    """
    best: tuple[Entity, Rule] | None = None
    for entity in obs.salient_entities:
        rule = table.match(entity, obs.env)
        if rule.emission is None:
            continue
        if best is None or rule.emission.risk.value > best[1].emission.risk.value:
            best = (entity, rule)
    if best is None:
        return None
    entity, rule = best
    emission = rule.emission
    assert emission is not None
    rationale = (
        f"{entity.object_label!r} ({entity.attribute or 'no attribute'}) in the "
        f"{obs.env.location_type._value_} matched rule "
        f"{rule.object_pattern}|{rule.attribute_pattern} -> "
        f"{emission.category._value_}/{emission.level._value_}"
    )
    return _shared_assessment(
        emission.category, emission.level, emission.time_sensitivity,
        emission.feasibility, emission.risk.value, rationale,
    )


def _shared_assessment(
    category: HazardCategory,
    level: Criticality,
    time_sensitivity: TimeSensitivity,
    feasibility: Feasibility,
    score: float,
    rationale: str,
) -> HazardAssessment:
    """The validated assessment with these contents, built once and shared.

    Memoized in a bounded cache of immutable verdicts.  The key keeps the
    score's sign, as ``-0.0`` and ``0.0`` serialize apart.
    """
    return _verdict(category, level, time_sensitivity, feasibility,
                    score, math.copysign(1.0, score), rationale)


@lru_cache(maxsize=MEMO_SIZE)
def _verdict(category: HazardCategory, level: Criticality, time_sensitivity: TimeSensitivity,
             feasibility: Feasibility, score: float, sign: float,
             rationale: str) -> HazardAssessment:
    return HazardAssessment(
        category=category,
        factors=ContextFactors(level, time_sensitivity, feasibility),
        risk=RiskScore(score),
        rationale=rationale,
    )


class ScriptedBackend:
    """Deterministic context-aware backend over a rule table."""

    def __init__(self, table: RuleTable | None = None) -> None:
        self.table = table if table is not None else builtin_rule_table()

    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        return scripted_assess(self.table, obs)


# --------------------------------------------------------------------------
# Fixed-policy baselines

_FACTORS_BY_LEVEL = {
    Criticality.LOW: (TimeSensitivity.NEAR_FUTURE, Feasibility.ROBOT),
    Criticality.MEDIUM: (TimeSensitivity.SOON, Feasibility.POC),
    Criticality.HIGH: (TimeSensitivity.IMMEDIATE, Feasibility.HELP_NEEDED),
}

# Object-identity policy: label matcher -> (category, fixed level, fixed score).
_OBJECT_POLICY: tuple[tuple[Callable, HazardCategory, Criticality, float], ...] = (
    (_glob("*knife*"), HazardCategory.SHARP_OBJECT, Criticality.HIGH, 9.0),
    (_glob("*scissors*"), HazardCategory.SHARP_OBJECT, Criticality.HIGH, 8.5),
    (_glob("*glass*"), HazardCategory.SHARP_OBJECT, Criticality.HIGH, 8.5),
    (_glob("*gun*"), HazardCategory.SUSPICIOUS_ITEM, Criticality.HIGH, 9.5),
    (_glob("*person*"), HazardCategory.PERSON_DOWN, Criticality.HIGH, 8.0),
    (_glob("*crowd*"), HazardCategory.DISTRESS, Criticality.HIGH, 8.5),
    (_glob("*trash*"), HazardCategory.WASTE, Criticality.LOW, 1.0),
    (_glob("*garbage*"), HazardCategory.WASTE, Criticality.LOW, 1.0),
    (_glob("*litter*"), HazardCategory.WASTE, Criticality.LOW, 1.5),
    (_glob("*bag*"), HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM, 6.0),
    (_glob("*package*"), HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM, 6.0),
    (_glob("*suitcase*"), HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM, 6.0),
)


@lru_cache(maxsize=MEMO_SIZE)
def _object_identity(label: str) -> tuple[HazardCategory, Criticality, float] | None:
    lowered = label.lower()
    for match, category, level, score in _OBJECT_POLICY:
        if match(lowered):
            return category, level, score
    return None


def baseline_object_assess(obs: Observation) -> Optional[HazardAssessment]:
    """Fixed criticality by object identity alone; context is ignored.

    A knife grades High wherever it is seen.  Unrecognized labels are not
    reported.
    """
    best: tuple[Entity, HazardCategory, Criticality, float] | None = None
    for entity in obs.salient_entities:
        hit = _object_identity(entity.object_label)
        if hit is None:
            continue
        category, level, score = hit
        if best is None or score > best[3]:
            best = (entity, category, level, score)
    if best is None:
        return None
    entity, category, level, score = best
    tau, phi = _FACTORS_BY_LEVEL[level]
    return _shared_assessment(
        category, level, tau, phi, score,
        f"object-identity policy: {entity.object_label!r} is always "
        f"{level._value_}, context ignored",
    )


# Location policy: fixed criticality per location type, regardless of hazard.
_LOCATION_POLICY = {
    LocationType.KITCHEN: Criticality.LOW,
    LocationType.OFFICE: Criticality.LOW,
    LocationType.CORRIDOR: Criticality.HIGH,
    LocationType.PUBLIC_AREA: Criticality.HIGH,
    LocationType.RESTRICTED_AREA: Criticality.HIGH,
}


def baseline_location_assess(obs: Observation) -> Optional[HazardAssessment]:
    """Fixed criticality looked up from the location type alone.

    The hazard category still comes from object identity, but the grade is
    the location's: any hazard in a kitchen is Low, any in a corridor High.
    """
    detected: tuple[Entity, HazardCategory] | None = None
    for entity in obs.salient_entities:
        hit = _object_identity(entity.object_label)
        if hit is not None:
            detected = (entity, hit[0])
            break
    if detected is None:
        return None
    entity, category = detected
    level = _LOCATION_POLICY[obs.env.location_type]
    tau, phi = _FACTORS_BY_LEVEL[level]
    return _shared_assessment(
        category, level, tau, phi, REPRESENTATIVE_RISK[level],
        f"location policy: anything in the {obs.env.location_type._value_} "
        f"is {level._value_}",
    )


class ObjectBaselineBackend:
    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        return baseline_object_assess(obs)


class LocationBaselineBackend:
    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        return baseline_location_assess(obs)


# --------------------------------------------------------------------------
# Remote backend: JSON wire format and deadline-bounded transport

_REQUEST_FIELDS = ("timestamp", "caption", "entities", "env")
_ENTITY_FIELDS = ("object_label", "attribute")
_ENV_FIELDS = ("location_type", "crowd_density", "vulnerable_present")
_RESPONSE_FIELDS = ("category", "d", "tau", "phi", "rho", "rationale")


def encode_observation(obs: Observation) -> dict:
    """Observation -> request document. Field names are part of the contract."""
    return {
        "timestamp": obs.timestamp,
        "caption": obs.scene_caption,
        "entities": [
            {"object_label": e.object_label, "attribute": e.attribute}
            for e in obs.salient_entities
        ],
        "env": {
            "location_type": obs.env.location_type.value,
            "crowd_density": obs.env.crowd_density.value,
            "vulnerable_present": obs.env.vulnerable_present,
        },
    }


def _require_exact_fields(doc: dict, fields: tuple[str, ...], what: str) -> None:
    missing = [f for f in fields if f not in doc]
    unknown = [f for f in doc if f not in fields]
    if missing or unknown:
        raise BackendResponseError(
            f"{what} must have exactly the fields {list(fields)}; "
            f"missing={missing} unknown={unknown}"
        )


def decode_observation(doc: dict) -> Observation:
    """Request document -> Observation: the exact inverse of
    :func:`encode_observation`.

    Every field is required and must have its encoded type (an integer
    timestamp, a boolean ``vulnerable_present``); unknown fields are
    rejected.  Any other input raises :class:`BackendResponseError`.
    """
    if not isinstance(doc, dict):
        raise BackendResponseError("request must be a JSON object")
    _require_exact_fields(doc, _REQUEST_FIELDS, "request")
    if not isinstance(doc["entities"], list):
        raise BackendResponseError("'entities' must be a list")
    for item in doc["entities"]:
        if not isinstance(item, dict):
            raise BackendResponseError("each entity must be an object")
        _require_exact_fields(item, _ENTITY_FIELDS, "entity")
    env_doc = doc["env"]
    if not isinstance(env_doc, dict):
        raise BackendResponseError("'env' must be an object")
    _require_exact_fields(env_doc, _ENV_FIELDS, "env")
    if not isinstance(doc["caption"], str):
        raise BackendResponseError("'caption' must be a string")
    if type(doc["timestamp"]) is not int:
        raise BackendResponseError(
            f"'timestamp' must be an integer, got {doc['timestamp']!r}"
        )
    if type(env_doc["vulnerable_present"]) is not bool:
        raise BackendResponseError(
            f"'vulnerable_present' must be true or false, "
            f"got {env_doc['vulnerable_present']!r}"
        )
    try:
        entities = [Entity(e["object_label"], e["attribute"]) for e in doc["entities"]]
        env = EnvContext(
            location_type=enum_from_label(LocationType, env_doc["location_type"]),
            crowd_density=enum_from_label(CrowdDensity, env_doc["crowd_density"]),
            vulnerable_present=env_doc["vulnerable_present"],
        )
        return Observation(
            timestamp=doc["timestamp"],
            scene_caption=doc["caption"],
            salient_entities=tuple(entities),
            env=env,
        )
    except ValidationError as exc:
        raise BackendResponseError(f"invalid request values: {exc}") from exc


def encode_assessment(assessment: Optional[HazardAssessment]) -> dict:
    """Assessment (or no-hazard) -> response document."""
    if assessment is None:
        return {"no_hazard": True}
    return {
        "category": assessment.category.value,
        "d": assessment.factors.criticality_level.value,
        "tau": assessment.factors.time_sensitivity.value,
        "phi": assessment.factors.feasibility.value,
        "rho": assessment.risk.value,
        "rationale": assessment.rationale,
    }


def decode_assessment(doc: dict) -> Optional[HazardAssessment]:
    """Response document -> assessment, enforcing every domain invariant.

    Either exactly ``{"no_hazard": true}`` or exactly the six assessment
    fields; anything else (unknown fields, out-of-range score, band/level
    incoherence) is rejected.
    """
    if not isinstance(doc, dict):
        raise BackendResponseError("response must be a JSON object")
    if "no_hazard" in doc:
        if list(doc.keys()) != ["no_hazard"] or doc["no_hazard"] is not True:
            raise BackendResponseError(
                "a no-hazard response must be exactly {'no_hazard': true}"
            )
        return None
    _require_exact_fields(doc, _RESPONSE_FIELDS, "response")
    if not isinstance(doc["rho"], (int, float)) or isinstance(doc["rho"], bool):
        raise BackendResponseError(f"'rho' must be a number, got {doc['rho']!r}")
    if not isinstance(doc["rationale"], str):
        raise BackendResponseError("'rationale' must be a string")
    try:
        return HazardAssessment(
            category=enum_from_label(HazardCategory, doc["category"]),
            factors=ContextFactors(
                enum_from_label(Criticality, doc["d"]),
                enum_from_label(TimeSensitivity, doc["tau"]),
                enum_from_label(Feasibility, doc["phi"]),
            ),
            risk=RiskScore(float(doc["rho"])),
            rationale=doc["rationale"],
        )
    except BackendResponseError:
        raise
    except (OverflowError, ValidationError) as exc:
        raise BackendResponseError(f"invalid response values: {exc}") from exc


Transport = Callable[[str, dict, int], dict]


def http_transport(endpoint: str, request: dict, timeout_ticks: int) -> dict:
    """Default transport: blocking JSON POST with a whole-exchange deadline."""
    try:
        return _http.post_json(endpoint, request, ticks_to_seconds(timeout_ticks))
    except TimeoutError as exc:
        raise BackendTimeout(str(exc)) from exc
    except ConnectionError as exc:
        raise BackendTransportError(str(exc)) from exc
    except ValueError as exc:
        raise BackendResponseError(str(exc)) from exc


def remote_assess(
    endpoint: str,
    obs: Observation,
    timeout_ticks: int,
    transport: Transport | None = None,
) -> Optional[HazardAssessment]:
    """Ask a remote model endpoint for an assessment.

    Timeouts, transport failures, and malformed responses each raise their
    own error type; none of them is ever reported as "no hazard".
    """
    if timeout_ticks <= 0:
        raise ValidationError(f"timeout must be positive, got {timeout_ticks}")
    transport = transport if transport is not None else http_transport
    response = transport(endpoint, encode_observation(obs), timeout_ticks)
    return decode_assessment(response)


class RemoteBackend:
    """Deadline-bounded remote assessment client.

    Without a custom ``transport`` the endpoint must be an ``http://`` URL
    with a host; any other raises ConfigurationError here, not on each step.
    """

    def __init__(
        self,
        endpoint: str,
        timeout_ticks: int = 200,
        transport: Transport | None = None,
    ) -> None:
        if transport is None:
            _http.parse_url(endpoint)
        self.endpoint = endpoint
        self.timeout_ticks = timeout_ticks
        self._transport = transport

    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        return remote_assess(self.endpoint, obs, self.timeout_ticks, self._transport)


# --------------------------------------------------------------------------
# Fault injection


@dataclass(frozen=True)
class FaultProfile:
    """Deterministic fault plan: extra latency plus seeded random failures."""

    added_delay: int = 0
    failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.added_delay < 0:
            raise ValidationError(f"added_delay {self.added_delay} must be >= 0")
        if not (0.0 <= self.failure_rate <= 1.0):
            raise ValidationError(
                f"failure_rate {self.failure_rate} outside [0, 1]"
            )


class FaultInjectingBackend:
    """Wraps a backend with configured delay and seeded failures.

    The delay is applied by advancing the supplied clock, so the pipeline
    observes it in its stage timers.  Behavior is a pure function of the
    profile seed and the call sequence.
    """

    def __init__(
        self,
        inner: Backend,
        profile: FaultProfile,
        clock: Clock | None = None,
    ) -> None:
        self.inner = inner
        self.profile = profile
        self._clock = clock
        self._rng = random.Random(profile.seed)

    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        if self.profile.added_delay and self._clock is not None:
            self._clock.advance(self.profile.added_delay)
        if self.profile.failure_rate and self._rng.random() < self.profile.failure_rate:
            raise InjectedFault(
                f"injected failure (rate={self.profile.failure_rate})"
            )
        return self.inner.assess(obs)


def with_fault_injection(
    inner: Backend, profile: FaultProfile, clock: Clock | None = None
) -> FaultInjectingBackend:
    """Wrap ``inner`` with the given fault profile."""
    return FaultInjectingBackend(inner, profile, clock)
