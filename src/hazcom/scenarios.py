"""Scenario definitions, seeded generation, and the scenario file.

The builtin suite covers the five canonical situations (knife in an unsafe
area, knife in a kitchen, person down, toy gun, trash) plus distress,
an unattended item (the Medium grade), and a degraded-backend run that
exercises the fallback path.  ``sixty_run_suite`` scales those families to
60 runs including the ambiguity cases where fixed-policy baselines err.
``generate`` draws seeded random scenarios, and a scenario file holds any
suite.  Nothing here runs or scores a suite (see :mod:`hazcom.harness`), so
making or loading inputs never loads the engine, dispatch, the oracle or the
metrics.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    ConfigurationError,
    Criticality,
    CrowdDensity,
    EnvContext,
    Feasibility,
    FieldTable,
    HazardCategory,
    LocationType,
    RiskScore,
    TimeSensitivity,
    ValidationError,
    band_risk,
    check_fields,
    enum_from_label,
    location_phrase,
    parse_json,
)
from .perception import (
    BackendResponseError,
    Entity,
    FaultProfile,
    HazardAssessment,
    Observation,
    RuleTable,
    builtin_rule_table,
    decode_observation,
    encode_observation,
    scripted_assess,
)

SCENARIO_FORMAT = "hazcom-scenarios-v1"


@dataclass(frozen=True)
class StepTruth:
    """Ground truth for one observation that does contain a hazard.

    ``criticality`` is the one grade: it is both the declared severity
    level and the overall criticality.  An optional reference score, when
    present, must band to it.  Truths are inputs: they are defined here,
    beside the scenarios that hold them, and :mod:`hazcom.metrics` only
    reads them, so making or loading inputs never loads the metrics.
    """

    category: HazardCategory
    criticality: Criticality
    time_sensitivity: TimeSensitivity
    feasibility: Feasibility
    risk: float | None = None

    def __post_init__(self) -> None:
        if self.risk is not None:
            banded = band_risk(RiskScore(self.risk))
            if banded is not self.criticality:
                raise ValidationError(
                    f"truth incoherent: score {self.risk} bands to "
                    f"{banded.value}, not {self.criticality.value}"
                )


@dataclass(frozen=True)
class Scenario:
    """An ordered observation sequence with aligned ground truth."""

    scenario_id: str
    observations: tuple[Observation, ...]
    ground_truth: tuple[Optional[StepTruth], ...]
    fault_profile: FaultProfile | None = None

    def __post_init__(self) -> None:
        if not self.scenario_id:
            raise ValidationError("scenario id must be non-empty")
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        if not self.observations:
            raise ValidationError(f"scenario {self.scenario_id}: no observations")
        if len(self.observations) != len(self.ground_truth):
            raise ValidationError(
                f"scenario {self.scenario_id}: {len(self.observations)} observations "
                f"but {len(self.ground_truth)} truth entries"
            )


def _obs(
    timestamp: int,
    caption: str,
    entities: Sequence[tuple[str, str]],
    location: LocationType,
    crowd: CrowdDensity = CrowdDensity.NONE,
    vulnerable: bool = False,
) -> Observation:
    return Observation(
        timestamp=timestamp,
        scene_caption=caption,
        salient_entities=tuple(Entity(label, attr) for label, attr in entities),
        env=EnvContext(location, crowd, vulnerable),
    )


def truth_from_rules(obs: Observation) -> Optional[StepTruth]:
    """Derive ground truth by running the builtin rule table on an
    observation; guarantees label/band coherence by construction.  Each
    rule verdict has one truth, shared by every step that draws it."""
    table, truths = _rule_truths()
    assessment = scripted_assess(table, obs)
    return None if assessment is None else truths[id(assessment)]


@lru_cache(maxsize=1)
def _rule_truths() -> tuple[RuleTable, dict[int, StepTruth]]:
    """The builtin rule table with one ``StepTruth`` per rule verdict, keyed
    by the verdict's id so that a lookup hashes an int, never the
    assessment's fields.  Equal truths of different rules are one object.
    The table is kept with the map, so each keyed verdict stays alive."""
    table = builtin_rule_table()
    truths: dict[int, StepTruth] = {}
    shared: dict[StepTruth, StepTruth] = {}
    for rule in table.rules:
        if rule.emission is not None:
            truth = _step_truth(rule.emission)
            truths[id(rule.emission)] = shared.setdefault(truth, truth)
    return table, truths


def _step_truth(assessment: HazardAssessment) -> StepTruth:
    factors = assessment.factors
    return StepTruth(
        category=assessment.category,
        criticality=factors.criticality_level,
        time_sensitivity=factors.time_sensitivity,
        feasibility=factors.feasibility,
        risk=assessment.risk.value,
    )


def _control(timestamp: int, location: LocationType, caption: str | None = None) -> Observation:
    text = caption or f"routine patrol view of the {location_phrase(location)}, nothing salient"
    return _obs(timestamp, text, (), location)


def builtin_suite() -> list[Scenario]:
    """The canonical scenario suite.

    Covers every criticality grade, every recipient set, both alarm
    states, and (via the degraded run) the budget-breach fallback path.
    Each hazard is followed by a no-hazard control step so the alarm
    reset is exercised.
    """
    high_sharp = StepTruth(
        HazardCategory.SHARP_OBJECT, Criticality.HIGH,
        TimeSensitivity.IMMEDIATE, Feasibility.HELP_NEEDED, 9.0,
    )
    scenarios = [
        Scenario(
            "S1-knife-unsafe-area",
            (
                _control(0, LocationType.CORRIDOR),
                _obs(1, "unattended knife on the floor of a busy corridor",
                     [("knife", "on-floor")], LocationType.CORRIDOR,
                     CrowdDensity.SPARSE),
                _control(2, LocationType.CORRIDOR),
            ),
            (None, high_sharp, None),
        ),
        Scenario(
            "S2-knife-kitchen",
            (
                _obs(0, "cook chopping vegetables with a knife in the kitchen",
                     [("knife", "in-use-cooking")], LocationType.KITCHEN,
                     CrowdDensity.SPARSE),
                _control(1, LocationType.KITCHEN),
            ),
            (
                StepTruth(HazardCategory.SHARP_OBJECT, Criticality.LOW,
                          TimeSensitivity.NEAR_FUTURE, Feasibility.ROBOT, 2.0),
                None,
            ),
        ),
        Scenario(
            "S3-person-down",
            (
                _obs(0, "person lying motionless on the corridor floor",
                     [("person", "on-floor-posture-abnormal")],
                     LocationType.CORRIDOR),
                _control(1, LocationType.CORRIDOR),
            ),
            (
                StepTruth(HazardCategory.PERSON_DOWN, Criticality.HIGH,
                          TimeSensitivity.IMMEDIATE, Feasibility.HELP_NEEDED, 8.0),
                None,
            ),
        ),
        Scenario(
            "S4-toy-gun",
            (
                _obs(0, "child's toy gun in retail packaging on a bench",
                     [("toy gun", "toy-packaging")], LocationType.PUBLIC_AREA,
                     CrowdDensity.SPARSE),
                _control(1, LocationType.PUBLIC_AREA),
            ),
            (
                StepTruth(HazardCategory.SUSPICIOUS_ITEM, Criticality.LOW,
                          TimeSensitivity.NEAR_FUTURE, Feasibility.ROBOT, 2.5),
                None,
            ),
        ),
        Scenario(
            "S5-trash-cleaning",
            (
                _obs(0, "overflowing trash bag beside the corridor wall",
                     [("trash", "overflowing")], LocationType.CORRIDOR),
                _control(1, LocationType.CORRIDOR),
            ),
            (
                StepTruth(HazardCategory.WASTE, Criticality.LOW,
                          TimeSensitivity.NEAR_FUTURE, Feasibility.ROBOT, 1.0),
                None,
            ),
        ),
        Scenario(
            "S6-people-distress",
            (
                _obs(0, "several people showing signs of panic in the public area",
                     [("person", "panic-behavior")], LocationType.PUBLIC_AREA,
                     CrowdDensity.DENSE),
                _control(1, LocationType.PUBLIC_AREA),
            ),
            (
                StepTruth(HazardCategory.DISTRESS, Criticality.HIGH,
                          TimeSensitivity.IMMEDIATE, Feasibility.HELP_NEEDED, 8.5),
                None,
            ),
        ),
        Scenario(
            "S7-unattended-item",
            (
                _obs(0, "bag left unattended near the public area entrance",
                     [("bag", "unattended")], LocationType.PUBLIC_AREA,
                     CrowdDensity.SPARSE),
                _control(1, LocationType.PUBLIC_AREA),
            ),
            (
                StepTruth(HazardCategory.UNATTENDED_ITEM, Criticality.MEDIUM,
                          TimeSensitivity.SOON, Feasibility.POC, 6.0),
                None,
            ),
        ),
        Scenario(
            "S8-degraded-backend",
            (
                _obs(0, "unattended knife on the floor of a busy corridor",
                     [("knife", "on-floor")], LocationType.CORRIDOR,
                     CrowdDensity.SPARSE),
                _obs(1, "the knife is still on the corridor floor",
                     [("knife", "on-floor")], LocationType.CORRIDOR,
                     CrowdDensity.SPARSE),
                _control(2, LocationType.CORRIDOR),
            ),
            (high_sharp, high_sharp, None),
            fault_profile=FaultProfile(added_delay=250, failure_rate=0.0, seed=0),
        ),
    ]
    return scenarios


def sixty_run_suite() -> list[Scenario]:
    """Sixty single-observation runs: twelve variations of each canonical
    family, including the ambiguity cases (toy gun, occluded posture) where
    the object-identity baseline provably errs."""
    scenarios: list[Scenario] = []

    def add(family: str, index: int, obs: Observation) -> None:
        scenarios.append(
            Scenario(
                f"{family}-run-{index:02d}",
                (obs,),
                (truth_from_rules(obs),),
            )
        )

    unsafe_locations = (
        LocationType.CORRIDOR, LocationType.PUBLIC_AREA, LocationType.RESTRICTED_AREA,
    )
    crowds = (CrowdDensity.NONE, CrowdDensity.SPARSE, CrowdDensity.DENSE)
    for i in range(12):
        location = unsafe_locations[i % 3]
        add("S1", i, _obs(
            0,
            f"knife left on the floor of the {location_phrase(location)}",
            [("knife", "on-floor")], location, crowds[i % 3],
            vulnerable=(i % 4 == 3),
        ))
    for i in range(12):
        add("S2", i, _obs(
            0, "food preparation underway, knife in active use",
            [("knife", "in-use-cooking")], LocationType.KITCHEN, crowds[i % 3],
        ))
    down_locations = (
        LocationType.CORRIDOR, LocationType.PUBLIC_AREA, LocationType.OFFICE,
        LocationType.RESTRICTED_AREA,
    )
    for i in range(8):
        location = down_locations[i % 4]
        add("S3", i, _obs(
            0,
            f"person lying on the floor of the {location_phrase(location)}",
            [("person", "on-floor-posture-abnormal")], location,
        ))
    for i in range(8, 12):
        location = down_locations[i % 4]
        add("S3", i, _obs(
            0,
            f"person partly hidden behind furniture in the {location_phrase(location)}",
            [("person", "posture-occluded")], location,
        ))
    toy_locations = (LocationType.PUBLIC_AREA, LocationType.OFFICE, LocationType.CORRIDOR)
    for i in range(12):
        add("S4", i, _obs(
            0, "toy gun in branded retail packaging",
            [("toy gun", "toy-packaging")], toy_locations[i % 3], crowds[i % 3],
        ))
    waste_labels = ("trash", "garbage", "litter")
    for i in range(12):
        location = unsafe_locations[i % 3]
        label = waste_labels[i % 3]
        add("S5", i, _obs(
            0, f"{label} accumulating in the {location_phrase(location)}",
            [(label, "scattered")], location,
        ))
    return scenarios


# --------------------------------------------------------------------------
# Randomized scenario generation

# Entity exemplars per hazard category: (label, attribute, allowed locations).
_CATEGORY_POOL: dict[HazardCategory, tuple[tuple[str, str, tuple[LocationType, ...] | None], ...]] = {
    HazardCategory.SHARP_OBJECT: (
        ("knife", "on-floor", (LocationType.CORRIDOR, LocationType.PUBLIC_AREA,
                               LocationType.RESTRICTED_AREA, LocationType.OFFICE)),
        ("knife", "in-use-cooking", (LocationType.KITCHEN,)),
        ("scissors", "on-floor", None),
        ("glass", "shattered", None),
    ),
    HazardCategory.PERSON_DOWN: (
        ("person", "on-floor-posture-abnormal", None),
    ),
    HazardCategory.DISTRESS: (
        ("person", "panic-behavior", None),
        ("crowd", "agitated", None),
    ),
    HazardCategory.SUSPICIOUS_ITEM: (
        ("toy gun", "toy-packaging", None),
        ("gun", "exposed", None),
    ),
    HazardCategory.WASTE: (
        ("trash", "overflowing", None),
        ("garbage", "scattered", None),
        ("litter", "scattered", None),
    ),
    HazardCategory.UNATTENDED_ITEM: (
        ("bag", "unattended", None),
        ("package", "unattended", None),
        ("suitcase", "unattended", None),
    ),
}

_BENIGN_POOL: tuple[tuple[tuple[str, str], ...], ...] = (
    (),
    (("person", "walking"),),
    (("person", "standing-by"),),
    (("person", "seated"),),
    (("appliance", "in-use-normal"),),
)

_CROWDS = tuple(CrowdDensity)

# The pools as generated observations take them, built once and shared by
# every scenario.  Each view is (entities, caption with ``{}`` for the
# location phrase, ...): an exemplar adds its allowed locations.  Each
# location is (phrase, one context per crowd density in ``_CROWDS`` order).
_EXEMPLARS = {
    category: tuple(((Entity(label, attribute),), f"{label} {attribute} in the {{}}", allowed)
                    for label, attribute, allowed in pool)
    for category, pool in _CATEGORY_POOL.items()
}
_BENIGN_VIEWS = tuple(
    (tuple(Entity(label, attribute) for label, attribute in entities),
     "patrol view of the {}, " + (" ".join(entities[0]) if entities else "clear"))
    for entities in _BENIGN_POOL
)
_PLACES = {
    location: (location_phrase(location),
               tuple(EnvContext(location, crowd) for crowd in _CROWDS))
    for location in LocationType
}
_QUIET = _CROWDS.index(CrowdDensity.NONE)


def _is_finite_number(value: object) -> bool:
    """Whether ``value`` is an int or a float, not a bool, and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class MixConfig:
    """Distribution knobs for generated scenarios.

    ``hazard_fraction`` must be a number in [0, 1].  Weights are keyed by
    hazard category and location type; each must be a finite number >= 0,
    and each table's total must be finite.  A bool is not a number here.
    """

    hazard_fraction: float = 0.8
    category_weights: Mapping[HazardCategory, float] = field(
        default_factory=lambda: {category: 1.0 for category in HazardCategory}
    )
    location_weights: Mapping[LocationType, float] = field(
        default_factory=lambda: {location: 1.0 for location in LocationType}
    )

    def __post_init__(self) -> None:
        if not (_is_finite_number(self.hazard_fraction) and 0 <= self.hazard_fraction <= 1):
            raise ValidationError(
                f"hazard_fraction {self.hazard_fraction!r} must be a number in [0, 1]"
            )
        for name, table, key_type in (
            ("category_weights", self.category_weights, HazardCategory),
            ("location_weights", self.location_weights, LocationType),
        ):
            for key, weight in table.items():
                if not isinstance(key, key_type):
                    raise ValidationError(
                        f"{name} key {key!r} is not a {key_type.__name__}"
                    )
                if not _is_finite_number(weight):
                    raise ValidationError(
                        f"{name} weight {weight!r} for {key.value} must be a finite number"
                    )
                if weight < 0:
                    raise ValidationError(f"{name} must be non-negative")
            if not _is_finite_number(sum(table.values())):
                raise ValidationError(f"{name} must have a finite total")
        if self.hazard_fraction > 0 and not any(
            w > 0 for w in self.category_weights.values()
        ):
            raise ValidationError("at least one category weight must be positive")
        if not any(w > 0 for w in self.location_weights.values()):
            raise ValidationError("at least one location weight must be positive")


def _choice_table(weights: Mapping, items: Mapping, allowed=None) -> tuple:
    """The draw table of the keys with positive weight (within ``allowed``),
    in table order: each key's item from ``items``, the cumulative weights
    and their total as ``random.choices`` takes them, and the highest index
    it searches."""
    pairs = [
        (key, weight) for key, weight in weights.items()
        if weight > 0 and (allowed is None or key in allowed)
    ]
    if not pairs:
        # Exemplar constraints can exclude every weighted location; fall
        # back to the allowed set uniformly.
        pairs = [(key, 1.0) for key in allowed]
    keys, values = zip(*pairs)
    cum = list(accumulate(values))
    return tuple(items[key] for key in keys), cum, cum[-1] + 0.0, len(keys) - 1


def _weighted_choice(draw: Callable[[], float], table: tuple):
    """``rng.choices(items, cum_weights=cum)[0]`` for ``draw = rng.random``:
    the item CPython's ``choices`` picks for ``k=1``, from the same one
    ``draw()``, without re-checking the table or building a list."""
    items, cum, total, hi = table
    return items[bisect_right(cum, draw() * total, 0, hi)]


def _below(bits: Callable[[int], int], n: int) -> int:
    """``rng._randbelow(n)`` for ``bits = rng.getrandbits`` and ``n >= 1``:
    the index ``rng.choice`` takes in ``n`` items and ``rng.randint(1, n) - 1``,
    from the same draws, without their wrapper frames."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def generate(seed: int, n: int, mix: MixConfig | None = None) -> list[Scenario]:
    """Generate ``n`` random scenarios, deterministic for a given seed.

    Ground truth comes from the builtin rule table, so every truth is
    band-coherent by construction.  With the default mix each hazard
    category appears at least once whenever ``n`` allows it.  ``n`` must
    be an int >= 1 (not a bool).

    Each weighted choice (category, location) is one ``rng.random()``
    mapped through the table's cumulative weights exactly as
    ``rng.choices(keys, cum_weights=…)[0]`` maps it, and each uniform one
    (step count, view, crowd) takes ``rng.getrandbits`` as ``rng.choice``
    and ``rng.randint`` do, so the RNG stream and the generated scenarios
    are those of these calls.  A step's observation is made of its index,
    its view, its location and its crowd, so the call builds each distinct
    observation once, with its truth from ``truth_from_rules``, and every
    step that draws it shares both; every entity and context comes from the
    pools above and every truth is one per rule verdict.  Equal values are
    one object.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be an int >= 1, got {n!r}")
    mix = mix if mix is not None else MixConfig()
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    locations = _choice_table(mix.location_weights, _PLACES)
    # Each exemplar with its location draw table in place of its allowed set.
    exemplars = {
        category: tuple(
            (entities, caption, locations if allowed is None
             else _choice_table(mix.location_weights, _PLACES, allowed))
            for entities, caption, allowed in pool
        )
        for category, pool in _EXEMPLARS.items()
    }
    forced = [
        exemplars[category] for category in HazardCategory
        if mix.category_weights.get(category, 0.0) > 0
    ]
    categories = _choice_table(mix.category_weights, exemplars) if forced else None
    # Each distinct step's (observation, truth), for this call only.  Views
    # and places are keyed by identity: each is one object, alive as long
    # as the call.
    steps: dict[tuple, tuple[Observation, Optional[StepTruth]]] = {}
    scenarios = []
    for i in range(n):
        pairs = []
        for t in range(1 + _below(bits, 3)):
            exemplar_pool = None
            if mix.hazard_fraction > 0 and t == 0 and i < len(forced):
                exemplar_pool = forced[i]
            if exemplar_pool is None and (
                mix.hazard_fraction == 0.0 or draw() >= mix.hazard_fraction
            ):
                view = _BENIGN_VIEWS[_below(bits, len(_BENIGN_VIEWS))]
                place = _weighted_choice(draw, locations)
                crowd = _QUIET
            else:
                pool = exemplar_pool or _weighted_choice(draw, categories)
                view = pool[_below(bits, len(pool))]
                place = _weighted_choice(draw, view[2])
                crowd = _below(bits, len(_CROWDS))
            key = (t, id(view), id(place), crowd)
            pair = steps.get(key)
            if pair is None:
                phrase, contexts = place
                obs = Observation(t, view[1].format(phrase), view[0], contexts[crowd])
                pair = steps[key] = obs, truth_from_rules(obs)
            pairs.append(pair)
        observations, ground_truth = zip(*pairs)
        scenarios.append(Scenario(f"gen-{seed}-{i:03d}", observations, ground_truth))
    return scenarios


# --------------------------------------------------------------------------
# Scenario file round-trip

def _truth_to_dict(truth: Optional[StepTruth]) -> Optional[dict]:
    if truth is None:
        return None
    doc = {
        "category": truth.category.value,
        "d": truth.criticality.value,
        "tau": truth.time_sensitivity.value,
        "phi": truth.feasibility.value,
        "k": truth.criticality.value,
    }
    if truth.risk is not None:
        doc["rho"] = truth.risk
    return doc


# The truth document's field table (see :data:`hazcom.core.FieldTable`).
_TRUTH_FIELDS = {
    **dict.fromkeys(("category", "d", "tau", "phi", "k"), ((str,), "a string", True)),
    "rho": ((float, int, type(None)), "a number or null", False),
}


def _truth_from_dict(doc: Optional[dict], where: str) -> Optional[StepTruth]:
    if doc is None:
        return None
    try:
        check_fields(doc, _TRUTH_FIELDS, "truth")
        rho = doc.get("rho")
        if rho is not None and not 0.0 <= rho <= 10.0:
            raise ValidationError(f"'rho' {rho} outside the valid range [0, 10]")
        category = enum_from_label(HazardCategory, doc["category"])
        level = enum_from_label(Criticality, doc["d"])
        tau = enum_from_label(TimeSensitivity, doc["tau"])
        phi = enum_from_label(Feasibility, doc["phi"])
        grade = enum_from_label(Criticality, doc["k"])
        if level is not grade:
            raise ValidationError(
                f"truth incoherent: level {level.value} but overall "
                f"criticality {grade.value}"
            )
        return StepTruth(category, grade, tau, phi, None if rho is None else float(rho))
    except ValidationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    doc: dict = {
        "id": scenario.scenario_id,
        "steps": [
            {"observation": encode_observation(o), "truth": _truth_to_dict(t)}
            for o, t in zip(scenario.observations, scenario.ground_truth)
        ],
    }
    if scenario.fault_profile is not None:
        doc["fault_profile"] = asdict(scenario.fault_profile)
    return doc


#: The fault-profile field table of a scenario file; an omitted field takes
#: the :class:`FaultProfile` default.
_FAULT_PROFILE_FIELDS = {
    "added_delay": ((int,), "an integer", False),
    "failure_rate": ((float, int), "a number", False),
    "seed": ((int,), "an integer", False),
}


#: The file, scenario and step field tables of a scenario file.
_FILE_FIELDS = {"format": ((str,), "a string", True), "scenarios": ((list,), "a list", True)}
_SCENARIO_FIELDS = {"id": ((str,), "a string", True), "steps": ((list,), "a list", True),
                    "fault_profile": ((dict, type(None)), "an object or null", False)}
_STEP_FIELDS = {"observation": ((dict,), "an object", True),
                "truth": ((dict, type(None)), "an object or null", False)}


def _check_document(doc: object, fields: FieldTable, what: str, where: str) -> dict:
    """:func:`check_fields`, raising ConfigurationError prefixed by ``where``."""
    try:
        return check_fields(doc, fields, what)
    except ValidationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def scenario_from_dict(doc: dict, where: str) -> Scenario:
    scenario_id = _check_document(doc, _SCENARIO_FIELDS, "scenario", where)["id"]
    try:  # JSON's \ud800 escape spells a lone surrogate, which UTF-8 cannot encode
        scenario_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigurationError(f"{where}: 'id' must be UTF-8 text, got {scenario_id!r}") from exc
    profile = None
    if doc.get("fault_profile") is not None:
        try:
            profile = FaultProfile(**check_fields(
                doc["fault_profile"], _FAULT_PROFILE_FIELDS, "fault profile"))
        except ValidationError as exc:
            raise ConfigurationError(
                f"{where} ({scenario_id}): invalid fault profile: {exc}"
            ) from exc
    observations, truths = [], []
    for index, step in enumerate(doc["steps"]):
        step_where = f"{where} ({scenario_id}, step {index})"
        _check_document(step, _STEP_FIELDS, "step", step_where)
        try:
            observations.append(decode_observation(step["observation"]))
        except BackendResponseError as exc:
            raise ConfigurationError(
                f"{step_where}: invalid observation: {exc}"
            ) from exc
        truths.append(_truth_from_dict(step.get("truth"), step_where))
    try:
        return Scenario(scenario_id, tuple(observations), tuple(truths), profile)
    except ValidationError as exc:
        raise ConfigurationError(f"{where} ({scenario_id}): {exc}") from exc


def scenario_file_text(scenarios: Sequence[Scenario]) -> str:
    """The text of a scenario file holding ``scenarios``."""
    document = {
        "format": SCENARIO_FORMAT,
        "scenarios": [scenario_to_dict(s) for s in scenarios],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def save_scenarios(path: str | Path, scenarios: Sequence[Scenario]) -> None:
    Path(path).write_text(scenario_file_text(scenarios), encoding="utf-8")


def load_scenarios(path: str | Path) -> list[Scenario]:
    """The scenarios of the file at ``path``; a fault is a ConfigurationError
    naming the file (``<path>: not JSON: …`` from :func:`core.parse_json`)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    document = parse_json(text, str(path), ConfigurationError)
    _check_document(document, _FILE_FIELDS, f"{SCENARIO_FORMAT!r} document", str(path))
    if document["format"] != SCENARIO_FORMAT:
        raise ConfigurationError(f"{path}: expected a {SCENARIO_FORMAT!r} document")
    scenarios = [
        scenario_from_dict(doc, f"{path}: scenario {index}")
        for index, doc in enumerate(document["scenarios"])
    ]
    if not scenarios:
        raise ConfigurationError(f"{path}: no scenarios")
    seen = set()
    for scenario in scenarios:
        if scenario.scenario_id in seen:
            raise ConfigurationError(
                f"{path}: duplicate scenario id {scenario.scenario_id!r}"
            )
        seen.add(scenario.scenario_id)
    return scenarios
