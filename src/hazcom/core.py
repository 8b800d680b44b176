"""Domain model and the deterministic communication policy.

Everything in this module is a deterministic function over immutable values:
risk banding, tone coupling, character/alarm/recipient selection, and
template-based message composition.  No I/O, no clock, no randomness, so
every operation is safe to call from any number of concurrent contexts.
Assembled outputs are memoized and shared between callers; they are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache, total_ordering
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Type, TypeVar


class ValidationError(ValueError):
    """A value violates a domain invariant."""


class ConfigurationError(Exception):
    """A table, registry, or configuration file cannot satisfy a request."""


E = TypeVar("E", bound=Enum)

#: The fields of a JSON document: key -> (its JSON types, how messages name
#: them, whether the key is required).
FieldTable = Mapping[str, tuple[tuple[type, ...], str, bool]]


def check_fields(doc: object, fields: FieldTable, what: str,
                 error: Type[Exception] = ValidationError) -> dict:
    """``doc`` itself if it is a JSON object with the keys and the exact JSON
    types of ``fields``; otherwise raise ``error`` saying what is wrong."""
    if type(doc) is not dict:
        raise error(f"{what} must be a JSON object")
    required = [key for key, (_, _, needed) in fields.items() if needed]
    missing = [key for key in required if key not in doc]
    unknown = [key for key in doc if key not in fields]
    if missing or unknown:
        optional = [key for key in fields if key not in required]
        also = f" and optionally {optional}" if optional else ""
        raise error(f"{what} must have exactly the fields {required}{also}; "
                    f"missing={missing} unknown={unknown}")
    for key, (types, name, _) in fields.items():
        if key in doc and type(doc[key]) not in types:
            raise error(f"{key!r} must be {name}, got {doc[key]!r}")
    return doc


@cache
def members_by_label(enum_cls: Type[E]) -> Mapping[str, E]:
    """The members of ``enum_cls`` by canonical label; built once per enum."""
    return {member.value: member for member in enum_cls}


def enum_from_label(enum_cls: Type[E], label: str, context: str = "") -> E:
    """Look up an enum member by its canonical label, e.g. ``"Medium"``."""
    try:
        return members_by_label(enum_cls)[label]
    except (KeyError, TypeError):  # unknown or unhashable label
        pass
    valid = ", ".join(m.value for m in enum_cls)
    where = f" in {context}" if context else ""
    raise ValidationError(
        f"unknown {enum_cls.__name__} {label!r}{where}; expected one of: {valid}"
    )


class Label(Enum):
    """Base of the label enums: members hash by identity, as they compare."""

    __hash__ = object.__hash__


class HazardCategory(Label):
    """Closed set of hazard labels the policy knows how to talk about."""

    SHARP_OBJECT = "SharpObject"
    PERSON_DOWN = "PersonDown"
    DISTRESS = "Distress"
    SUSPICIOUS_ITEM = "SuspiciousItem"
    WASTE = "Waste"
    UNATTENDED_ITEM = "UnattendedItem"


_CRITICALITY_RANK = {"Low": 0, "Medium": 1, "High": 2}


@total_ordering
class Criticality(Label):
    """Overall severity grade; totally ordered Low < Medium < High."""

    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"

    @property
    def rank(self) -> int:
        return _CRITICALITY_RANK[self._value_]

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Criticality):
            return NotImplemented
        return self.rank < other.rank


class TimeSensitivity(Label):
    """How soon a response is required."""

    IMMEDIATE = "Immediate"
    SOON = "Soon"
    NEAR_FUTURE = "NearFuture"


class Feasibility(Label):
    """Who is best positioned to mitigate: the robot, a nearby person
    of contact, or external help."""

    ROBOT = "Robot"
    POC = "PoC"
    HELP_NEEDED = "HelpNeeded"


class LocationType(Label):
    KITCHEN = "Kitchen"
    CORRIDOR = "Corridor"
    PUBLIC_AREA = "PublicArea"
    RESTRICTED_AREA = "RestrictedArea"
    OFFICE = "Office"


class CrowdDensity(Label):
    NONE = "None"
    SPARSE = "Sparse"
    DENSE = "Dense"


class Character(Label):
    """Register of a message, matched to criticality."""

    INQUIRY = "inquiry"
    ALERT = "alert"
    URGENT = "urgent"


class Channel(Label):
    """Delivery channels a communication can be routed to."""

    NEARBY = "nearby"
    REMOTE = "remote"
    COORDINATION = "coordination"


#: Delivery order: nearby individuals are the fastest mitigators, so they
#: are addressed first, then remote responders, then coordination systems.
CHANNEL_ORDER: tuple[Channel, ...] = (
    Channel.NEARBY,
    Channel.REMOTE,
    Channel.COORDINATION,
)


@dataclass(frozen=True)
class ContextFactors:
    """The assessed triple: severity in context, urgency, and who can act."""

    criticality_level: Criticality
    time_sensitivity: TimeSensitivity
    feasibility: Feasibility


@dataclass(frozen=True)
class EnvContext:
    """Broader environment a hazard was observed in."""

    location_type: LocationType
    crowd_density: CrowdDensity = CrowdDensity.NONE
    vulnerable_present: bool = False


RISK_MIN = 0.0
RISK_MAX = 10.0
#: Scores at or above this value grade Medium (and activate the alarm).
MEDIUM_RISK_THRESHOLD = 5.0
#: Scores at or above this value grade High.
HIGH_RISK_THRESHOLD = 8.0


@dataclass(frozen=True, order=True)
class RiskScore:
    """Continuous risk score on the 0..10 scale; out-of-range is rejected."""

    value: float

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise ValidationError(f"risk score must be numeric, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))
        if not (RISK_MIN <= self.value <= RISK_MAX):
            raise ValidationError(
                f"risk score {self.value} outside [{RISK_MIN}, {RISK_MAX}]"
            )

    def __float__(self) -> float:
        return self.value


def band_risk(risk: RiskScore) -> Criticality:
    """Grade a risk score into a criticality band.

    Bands are half-open: [0, 5) -> Low, [5, 8) -> Medium, [8, 10] -> High,
    so the alarm threshold sits exactly at 5.0.
    """
    if risk.value < MEDIUM_RISK_THRESHOLD:
        return Criticality.LOW
    if risk.value < HIGH_RISK_THRESHOLD:
        return Criticality.MEDIUM
    return Criticality.HIGH


#: A band-representative score per grade, for outputs that have a grade but
#: no measured score (fixed-grade baselines, fallback alerts).
REPRESENTATIVE_RISK: Mapping[Criticality, float] = {
    Criticality.LOW: 2.0,
    Criticality.MEDIUM: 6.0,
    Criticality.HIGH: 9.0,
}

#: Tone interval per criticality, mirroring the risk bands.  The upper bound
#: is exclusive except for High, which includes the top of the scale.
TONE_BANDS: Mapping[Criticality, tuple[float, float]] = {
    Criticality.LOW: (RISK_MIN, MEDIUM_RISK_THRESHOLD),
    Criticality.MEDIUM: (MEDIUM_RISK_THRESHOLD, HIGH_RISK_THRESHOLD),
    Criticality.HIGH: (HIGH_RISK_THRESHOLD, RISK_MAX),
}


def tone_for(risk: RiskScore) -> float:
    """Communication intensity, coupled one-to-one to the risk score."""
    return risk.value


def tone_in_band(tone: float, criticality: Criticality) -> bool:
    lo, hi = TONE_BANDS[criticality]
    if criticality is Criticality.HIGH:
        return lo <= tone <= hi
    return lo <= tone < hi


_CHARACTER_FOR = {
    Criticality.LOW: Character.INQUIRY,
    Criticality.MEDIUM: Character.ALERT,
    Criticality.HIGH: Character.URGENT,
}


def character_for(criticality: Criticality) -> Character:
    """Message register for a criticality: inquiry, alert, or urgent."""
    return _CHARACTER_FOR[criticality]


def alarm_for(criticality: Criticality) -> bool:
    """The audible alarm activates only for non-Low criticality."""
    return criticality is not Criticality.LOW


#: Recipients per criticality in delivery order; they nest as severity grows.
RECIPIENTS_IN_ORDER: Mapping[Criticality, tuple[Channel, ...]] = {
    Criticality.LOW: CHANNEL_ORDER[:1],
    Criticality.MEDIUM: CHANNEL_ORDER[:2],
    Criticality.HIGH: CHANNEL_ORDER,
}

_RECIPIENTS_FOR = {grade: frozenset(chs) for grade, chs in RECIPIENTS_IN_ORDER.items()}


def recipients_for(criticality: Criticality) -> frozenset[Channel]:
    """Recipient set for a criticality; sets are nested as severity grows."""
    return _RECIPIENTS_FOR[criticality]


@dataclass(frozen=True)
class MessageTuple:
    """A composed message: text, tone intensity, and character register."""

    text: str
    tone: float
    character: Character

    def __post_init__(self) -> None:
        if not self.text:
            raise ValidationError("message text must be non-empty")
        if not (RISK_MIN <= self.tone <= RISK_MAX):
            raise ValidationError(f"tone {self.tone} outside [0, 10]")


@dataclass(frozen=True)
class CommOutput:
    """Complete communication decision for one hazard.

    Construction enforces the policy invariants: the alarm flag follows
    criticality, the recipient set is exactly the one the criticality
    mandates, and the message tone/character sit in that criticality's band.
    """

    message: MessageTuple
    recipients: frozenset[Channel]
    alarm: bool
    criticality: Criticality
    risk: RiskScore
    category: HazardCategory | None = None

    def __post_init__(self) -> None:
        if self.alarm != alarm_for(self.criticality):
            raise ValidationError(
                f"alarm={self.alarm} inconsistent with criticality "
                f"{self.criticality.value}"
            )
        expected = recipients_for(self.criticality)
        if frozenset(self.recipients) != expected:
            got = sorted(c.value for c in self.recipients)
            want = sorted(c.value for c in expected)
            raise ValidationError(
                f"recipients {got} do not match {want} for criticality "
                f"{self.criticality.value}"
            )
        object.__setattr__(self, "recipients", frozenset(self.recipients))
        if not tone_in_band(self.message.tone, self.criticality):
            raise ValidationError(
                f"tone {self.message.tone} outside the "
                f"{self.criticality.value} band"
            )
        if self.message.character is not character_for(self.criticality):
            raise ValidationError(
                f"character {self.message.character.value} does not match "
                f"criticality {self.criticality.value}"
            )


_LOCATION_PHRASE = {
    LocationType.KITCHEN: "kitchen",
    LocationType.CORRIDOR: "corridor",
    LocationType.PUBLIC_AREA: "public area",
    LocationType.RESTRICTED_AREA: "restricted area",
    LocationType.OFFICE: "office",
}


def location_phrase(location: LocationType) -> str:
    """Human-readable name of a location type for message text."""
    return _LOCATION_PHRASE[location]


@dataclass(frozen=True, eq=False)
class TemplateTable:
    """Message templates keyed by (hazard category, criticality).

    Tables hash by identity (they key the memo of :func:`assemble_output`),
    and ``entries`` is a read-only copy, so a cached output never goes stale.

    File format, one record per line, ``#`` comments and blank lines
    ignored::

        <hazard>|<criticality>|<template-with-{location}-placeholder>
    """

    entries: Mapping[tuple[HazardCategory, Criticality], str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def template_for(self, category: HazardCategory, criticality: Criticality) -> str:
        try:
            return self.entries[(category, criticality)]
        except KeyError:
            raise ConfigurationError(
                f"no message template for ({category.value}, {criticality.value})"
            ) from None

    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "TemplateTable":
        entries: dict[tuple[HazardCategory, Criticality], str] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|", 2)
            if len(parts) != 3:
                raise ConfigurationError(
                    f"{source}:{line_no}: expected "
                    "'<hazard>|<criticality>|<template>'"
                )
            try:
                category = enum_from_label(HazardCategory, parts[0].strip())
                criticality = enum_from_label(Criticality, parts[1].strip())
            except ValidationError as exc:
                raise ConfigurationError(f"{source}:{line_no}: {exc}") from exc
            template = parts[2].strip()
            if not template:
                raise ConfigurationError(f"{source}:{line_no}: empty template")
            if "{location}" not in template:
                raise ConfigurationError(
                    f"{source}:{line_no}: template must contain "
                    "the {location} placeholder"
                )
            key = (category, criticality)
            if key in entries:
                raise ConfigurationError(
                    f"{source}:{line_no}: duplicate template for "
                    f"({category.value}, {criticality.value})"
                )
            entries[key] = template
        return cls(entries=entries)

    @classmethod
    def load(cls, path: str | Path) -> "TemplateTable":
        path = Path(path)
        return cls.parse(path.read_text(encoding="utf-8"), source=str(path))


@lru_cache(maxsize=1)
def builtin_templates() -> TemplateTable:
    """The template table shipped with the package."""
    text = resources.files("hazcom").joinpath("data/templates.txt").read_text("utf-8")
    return TemplateTable.parse(text, source="builtin templates")


def compose_message(
    category: HazardCategory,
    criticality: Criticality,
    env: EnvContext,
    table: TemplateTable | None = None,
) -> str:
    """Render the message text for a (hazard, criticality) pair.

    Deterministic template lookup keyed by hazard and criticality; the
    environment contributes the location phrase.
    """
    table = table if table is not None else builtin_templates()
    template = table.template_for(category, criticality)
    return template.format(location=location_phrase(env.location_type))


def policy_output(
    text: str, risk: RiskScore, category: HazardCategory | None
) -> CommOutput:
    """The communication decision carrying ``text`` at score ``risk``.

    The score's grade fixes the tone, character, alarm and recipients.
    """
    criticality = band_risk(risk)
    message = MessageTuple(text=text, tone=tone_for(risk), character=character_for(criticality))
    return CommOutput(
        message=message,
        recipients=recipients_for(criticality),
        alarm=alarm_for(criticality),
        criticality=criticality,
        risk=risk,
        category=category,
    )


def assemble_output(
    category: HazardCategory,
    risk: RiskScore,
    env: EnvContext,
    table: TemplateTable | None = None,
) -> CommOutput:
    """Build the full communication decision from a hazard and risk score.

    Memoized: identical inputs return the same shared, immutable output from
    a bounded cache keyed on the table, category, score and location type.
    The key keeps the score's sign, as ``-0.0`` and ``0.0`` serialize apart.
    """
    value = risk.value
    return _assembled(table, category, value, math.copysign(1.0, value), env.location_type)


@lru_cache(maxsize=1024)
def _assembled(table: TemplateTable | None, category: HazardCategory, value: float,
               sign: float, location: LocationType) -> CommOutput:
    risk = RiskScore(value)
    text = compose_message(category, band_risk(risk), EnvContext(location), table=table)
    return policy_output(text, risk, category)
