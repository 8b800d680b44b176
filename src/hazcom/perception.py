"""Perception backends.

One call maps an Observation to an optional HazardAssessment.  Four
implementations share that contract:

* ``ScriptedBackend``: deterministic first-match rule table (the reference
  context-aware policy),
* ``ObjectBaselineBackend``: fixed criticality by object identity alone,
* ``LocationBaselineBackend``: fixed criticality by location alone,
* ``RemoteBackend``: JSON-over-HTTP client with a hard deadline.

``FaultInjectingBackend`` wraps any backend with seeded delays and failures
for exercising the engine's budget/fallback path.

A built-in verdict is table data, built once per rule and policy row; its
rationale names the row (``rule *knife*|*|*|*|* -> SharpObject/High``), never
the entity.  A verdict is shared and immutable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fnmatch import translate
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Protocol

from .clock import Clock
from .core import (  # the backend errors are re-exported
    BackendError,
    BackendResponseError,
    BackendTimeout,
    BackendTransportError,
    Criticality,
    ContextFactors,
    CrowdDensity,
    EnvContext,
    Feasibility,
    HazardCategory,
    InjectedFault,
    LocationType,
    POLICY,
    RiskScore,
    TimeSensitivity,
    ValidationError,
    ConfigurationError,
    band_risk,
    check_fields,
    check_ticks,
    enum_from_label,
)


#: Entries each perception memo keeps at most: a rule table's rules and the
#: object baseline's verdicts.
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
        check_ticks("timestamp", self.timestamp)
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


def _glob(pattern: str) -> Callable[[str], Optional[re.Match]]:
    """Compiled case-sensitive glob matcher, the same test as ``fnmatchcase``."""
    return re.compile(translate(pattern)).match


@dataclass(frozen=True)
class Rule:
    """One match row and its verdict; ``emission=None`` marks the entity benign."""

    object_pattern: str
    attribute_pattern: str
    location: LocationType | None
    crowd: CrowdDensity | None
    vulnerable: bool | None
    emission: HazardAssessment | None
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

    ``=> none`` marks matching entities as benign.  Every hazard emission is
    the rule's verdict, so its score must band to its declared level.
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
        """The first rule matching ``entity`` in ``env``, memoized per table by
        everything a rule tests: the label, the attribute and the three context
        fields.  The memo keeps at most ``MEMO_SIZE`` entries and starts over
        when full; a context whose fields cannot be hashed is scanned without it."""
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
        return next(rule for rule in self.rules if rule.matches(entity, env))

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
    obj_pat, attr_pat = obj_pat.lower(), attr_pat.lower()
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
            emission = HazardAssessment(
                category,
                ContextFactors(level, enum_from_label(TimeSensitivity, parts[2]),
                               enum_from_label(Feasibility, parts[3])),
                RiskScore(float(parts[4])),
                f"rule {obj_pat}|{attr_pat}|{loc_tok}|{crowd_tok}|{vul_tok.lower()} -> "
                f"{category._value_}/{level._value_}",
            )
        except ValueError as exc:  # ValidationError included
            raise ConfigurationError(f"{where}: {exc}") from exc
    return Rule(
        object_pattern=obj_pat,
        attribute_pattern=attr_pat,
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
    returns None, never raises, for any well-formed observation.  Each
    verdict is its rule's shared, immutable assessment.
    """
    best = None
    for entity in obs.salient_entities:
        verdict = table.match(entity, obs.env).emission
        if verdict is not None and (best is None or verdict.risk.value > best.risk.value):
            best = verdict
    return best


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


def _fixed_verdict(category: HazardCategory, level: Criticality, score: float,
                   rationale: str) -> HazardAssessment:
    """A baseline's verdict: the level's fixed time sensitivity and feasibility."""
    return HazardAssessment(category, ContextFactors(level, *_FACTORS_BY_LEVEL[level]),
                            RiskScore(score), rationale)


# Object-identity policy: label matcher -> the row's verdict (fixed level and score).
_OBJECT_POLICY: tuple[tuple[Callable, HazardAssessment], ...] = tuple(
    (_glob(pattern), _fixed_verdict(category, level, score, f"object-identity policy: "
                                    f"{pattern} is always {level._value_}, context ignored"))
    for pattern, category, level, score in (
        ("*knife*", HazardCategory.SHARP_OBJECT, Criticality.HIGH, 9.0),
        ("*scissors*", HazardCategory.SHARP_OBJECT, Criticality.HIGH, 8.5),
        ("*glass*", HazardCategory.SHARP_OBJECT, Criticality.HIGH, 8.5),
        ("*gun*", HazardCategory.SUSPICIOUS_ITEM, Criticality.HIGH, 9.5),
        ("*person*", HazardCategory.PERSON_DOWN, Criticality.HIGH, 8.0),
        ("*crowd*", HazardCategory.DISTRESS, Criticality.HIGH, 8.5),
        ("*trash*", HazardCategory.WASTE, Criticality.LOW, 1.0),
        ("*garbage*", HazardCategory.WASTE, Criticality.LOW, 1.0),
        ("*litter*", HazardCategory.WASTE, Criticality.LOW, 1.5),
        ("*bag*", HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM, 6.0),
        ("*package*", HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM, 6.0),
        ("*suitcase*", HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM, 6.0),
    )
)


@lru_cache(maxsize=MEMO_SIZE)
def _object_verdict(label: str) -> Optional[HazardAssessment]:
    """The verdict of the first policy row matching ``label``; None if none does."""
    lowered = label.lower()
    for match, verdict in _OBJECT_POLICY:
        if match(lowered):
            return verdict
    return None


def baseline_object_assess(obs: Observation) -> Optional[HazardAssessment]:
    """Fixed criticality by object identity alone; context is ignored.

    A knife grades High wherever it is seen.  Unrecognized labels are not
    reported; of several hazards the highest score wins (ties: earliest).
    """
    best = None
    for entity in obs.salient_entities:
        verdict = _object_verdict(entity.object_label)
        if verdict is not None and (best is None or verdict.risk.value > best.risk.value):
            best = verdict
    return best


# Location policy: fixed criticality per location type, regardless of hazard.
_LOCATION_POLICY = {
    LocationType.KITCHEN: Criticality.LOW,
    LocationType.OFFICE: Criticality.LOW,
    LocationType.CORRIDOR: Criticality.HIGH,
    LocationType.PUBLIC_AREA: Criticality.HIGH,
    LocationType.RESTRICTED_AREA: Criticality.HIGH,
}

# Every verdict the location policy gives, by (category, location).
_LOCATION_VERDICTS = {
    (category, location): _fixed_verdict(
        category, level, POLICY[level].representative_risk,
        f"location policy: anything in the {location._value_} is {level._value_}",
    )
    for category in HazardCategory
    for location, level in _LOCATION_POLICY.items()
}


def baseline_location_assess(obs: Observation) -> Optional[HazardAssessment]:
    """Fixed criticality looked up from the location type alone.

    The hazard category still comes from object identity, but the grade is
    the location's: any hazard in a kitchen is Low, any in a corridor High.
    """
    for entity in obs.salient_entities:
        verdict = _object_verdict(entity.object_label)
        if verdict is not None:
            return _LOCATION_VERDICTS[verdict.category, obs.env.location_type]
    return None


class ObjectBaselineBackend:
    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        return baseline_object_assess(obs)


class LocationBaselineBackend:
    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        return baseline_location_assess(obs)


# --------------------------------------------------------------------------
# Remote backend: JSON wire format and deadline-bounded transport

# The wire documents' field tables (see :data:`hazcom.core.FieldTable`).
_STRING = ((str,), "a string", True)
_REQUEST_FIELDS = {
    "timestamp": ((int,), "an integer", True),
    "caption": _STRING,
    "entities": ((list,), "a list", True),
    "env": ((dict,), "an object", True),
}
_ENTITY_FIELDS = {"object_label": _STRING, "attribute": _STRING}
_ENV_FIELDS = {
    "location_type": _STRING,
    "crowd_density": _STRING,
    "vulnerable_present": ((bool,), "true or false", True),
}
_RESPONSE_FIELDS = {
    **dict.fromkeys(("category", "d", "tau", "phi"), _STRING),
    "rho": ((float, int), "a number", True),
    "rationale": _STRING,
}
_NO_HAZARD_FIELDS = {"no_hazard": ((bool,), "true", True)}


def encode_observation(obs: Observation) -> dict:
    """Observation -> request document. Field names are part of the contract.

    Labels are read from each member's stored ``_value_``, as
    ``TraceRecord.to_wire`` reads them: the ``.value`` descriptor costs more."""
    env = obs.env
    return {
        "timestamp": obs.timestamp,
        "caption": obs.scene_caption,
        "entities": [
            {"object_label": e.object_label, "attribute": e.attribute}
            for e in obs.salient_entities
        ],
        "env": {
            "location_type": env.location_type._value_,
            "crowd_density": env.crowd_density._value_,
            "vulnerable_present": env.vulnerable_present,
        },
    }


def decode_observation(doc: dict) -> Observation:
    """Request document -> Observation: the exact inverse of
    :func:`encode_observation`.

    Every field is required and must have its encoded type (an integer
    timestamp, a boolean ``vulnerable_present``); unknown fields are
    rejected.  Any other input raises :class:`BackendResponseError`.
    """
    check_fields(doc, _REQUEST_FIELDS, "request", BackendResponseError)
    for item in doc["entities"]:
        check_fields(item, _ENTITY_FIELDS, "entity", BackendResponseError)
    env_doc = check_fields(doc["env"], _ENV_FIELDS, "env", BackendResponseError)
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
    """Assessment (or no-hazard) -> response document; labels read as
    :func:`encode_observation` reads them."""
    if assessment is None:
        return {"no_hazard": True}
    factors = assessment.factors
    return {
        "category": assessment.category._value_,
        "d": factors.criticality_level._value_,
        "tau": factors.time_sensitivity._value_,
        "phi": factors.feasibility._value_,
        "rho": assessment.risk.value,
        "rationale": assessment.rationale,
    }


def decode_assessment(doc: dict) -> Optional[HazardAssessment]:
    """Response document -> assessment, enforcing every domain invariant.

    Either exactly ``{"no_hazard": true}`` or exactly the six assessment
    fields; anything else (unknown fields, out-of-range score, band/level
    incoherence) is rejected.
    """
    if type(doc) is dict and "no_hazard" in doc:
        check_fields(doc, _NO_HAZARD_FIELDS, "no-hazard response", BackendResponseError)
        if doc["no_hazard"] is not True:
            raise BackendResponseError(f"'no_hazard' must be true, got {doc['no_hazard']!r}")
        return None
    check_fields(doc, _RESPONSE_FIELDS, "response", BackendResponseError)
    try:
        return HazardAssessment(
            category=enum_from_label(HazardCategory, doc["category"]),
            factors=ContextFactors(
                enum_from_label(Criticality, doc["d"]),
                enum_from_label(TimeSensitivity, doc["tau"]),
                enum_from_label(Feasibility, doc["phi"]),
            ),
            risk=RiskScore(float(doc["rho"])),  # OverflowError past the largest float
            rationale=doc["rationale"],
        )
    except OverflowError as exc:
        raise BackendResponseError(
            f"invalid response values: 'rho' is out of range: {exc}") from exc
    except ValidationError as exc:
        raise BackendResponseError(f"invalid response values: {exc}") from exc


Transport = Callable[[str, dict, int], dict]


def http_transport(endpoint: str, request: dict, timeout_ticks: int) -> dict:
    """The default transport, ``_http.post_json``, by name; the HTTP client
    (and with it ``socket``) loads on the first call."""
    from . import _http
    return _http.post_json(endpoint, request, timeout_ticks)


class RemoteBackend:
    """Deadline-bounded remote assessment client.

    The timeout is a positive ``int`` tick count.  Without a custom
    ``transport``, ``_http.check_limits`` decides once, here, that a post
    can use the endpoint and the timeout, and ``_http.post_json`` is the
    transport.  A bad value raises ConfigurationError here, not on each
    step.  A timeout, a transport failure and a malformed response each
    raise their own backend error from :meth:`assess`, from ``_http`` or the
    decoder; none is ever reported as "no hazard".
    """

    def __init__(
        self,
        endpoint: str,
        timeout_ticks: int = 200,
        transport: Transport | None = None,
    ) -> None:
        if type(timeout_ticks) is not int or timeout_ticks <= 0:
            raise ConfigurationError(
                f"timeout must be positive and an int tick count, got {timeout_ticks!r}")
        if transport is None:
            from . import _http

            _http.check_limits(endpoint, timeout_ticks)
            transport = _http.post_json
        self.endpoint = endpoint
        self.timeout_ticks = timeout_ticks
        self._transport = transport

    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        request = encode_observation(obs)
        return decode_assessment(self._transport(self.endpoint, request, self.timeout_ticks))


# --------------------------------------------------------------------------
# Fault injection


@dataclass(frozen=True)
class FaultProfile:
    """Deterministic fault plan: extra latency plus seeded random failures.

    The fields take the types a scenario file demands of them: a delay in
    ticks, a failure rate that is an ``int`` or a ``float`` in [0, 1], and
    an ``int`` seed; a bool is neither a rate nor a seed.
    """

    added_delay: int = 0
    failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_ticks("added_delay", self.added_delay)
        if type(self.failure_rate) not in (float, int) or not 0.0 <= self.failure_rate <= 1.0:
            raise ValidationError(
                f"failure_rate must be a number in [0, 1], got {self.failure_rate!r}")
        if type(self.seed) is not int:
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")


class FaultInjectingBackend:
    """Wraps a backend with configured delay and seeded failures.

    The delay is applied by advancing the supplied clock, so the pipeline
    observes it in its stage timers; a delay needs a clock, and without one
    the wrapper raises ConfigurationError when it is built.  Behavior
    is a pure function of the profile seed and the call sequence: the
    failure generator is seeded only for a profile that can fail, and draws
    once per call.
    """

    def __init__(
        self,
        inner: Backend,
        profile: FaultProfile,
        clock: Clock | None = None,
    ) -> None:
        if profile.added_delay and clock is None:
            raise ConfigurationError(
                f"added_delay {profile.added_delay} needs a clock to advance"
            )
        self.inner = inner
        self.profile = profile
        self._clock = clock
        self._rng = random.Random(profile.seed) if profile.failure_rate else None

    def assess(self, obs: Observation) -> Optional[HazardAssessment]:
        if self.profile.added_delay:
            self._clock.advance(self.profile.added_delay)
        if self.profile.failure_rate and self._rng.random() < self.profile.failure_rate:
            raise InjectedFault(f"injected failure (rate={self.profile.failure_rate})")
        return self.inner.assess(obs)
