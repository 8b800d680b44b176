"""Scenario definitions, suite execution, and reporting.

The builtin suite covers the five canonical situations (knife in an unsafe
area, knife in a kitchen, person down, toy gun, trash) plus distress,
an unattended item (the Medium grade), and a degraded-backend run that
exercises the fallback path.  ``sixty_run_suite`` scales those families to
60 runs including the ambiguity cases where fixed-policy baselines err.
Suite execution is deterministic end to end: identical seeds and configs
produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .clock import VirtualClock, ticks_to_seconds
from .core import (
    ConfigurationError,
    Criticality,
    CrowdDensity,
    EnvContext,
    Feasibility,
    HazardCategory,
    LocationType,
    TimeSensitivity,
    ValidationError,
    check_fields,
    enum_from_label,
    location_phrase,
)
from .dispatch import DeliveryRecord, dispatch, memory_registry
from .engine import Engine, EngineConfig, TraceRecord
from .metrics import (
    LossAccount,
    StepTruth,
    SubMetrics,
    coordination_success,
    detection_accuracy,
    effectiveness,
    latency_compliance,
    message_alignment,
    objective_loss,
)
from .oracle import Violation, oracle_verify
from .perception import (
    Backend,
    BackendResponseError,
    Entity,
    FaultInjectingBackend,
    FaultProfile,
    Observation,
    builtin_rule_table,
    decode_observation,
    encode_observation,
    scripted_assess,
)

SCENARIO_FORMAT = "hazcom-scenarios-v1"
REPORT_FORMAT = "hazcom-report-v1"

# Memory sinks keep nothing, so every run shares one set.
_SINKS = memory_registry()


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
    observation; guarantees label/band coherence by construction."""
    assessment = scripted_assess(builtin_rule_table(), obs)
    if assessment is None:
        return None
    return StepTruth(
        category=assessment.category,
        criticality=assessment.factors.criticality_level,
        time_sensitivity=assessment.factors.time_sensitivity,
        feasibility=assessment.factors.feasibility,
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


@dataclass(frozen=True)
class MixConfig:
    """Distribution knobs for generated scenarios.

    Weights are keyed by hazard category and location type; each must be a
    finite number >= 0, and each table's total must be finite.
    """

    hazard_fraction: float = 0.8
    category_weights: Mapping[HazardCategory, float] = field(
        default_factory=lambda: {category: 1.0 for category in HazardCategory}
    )
    location_weights: Mapping[LocationType, float] = field(
        default_factory=lambda: {location: 1.0 for location in LocationType}
    )

    def __post_init__(self) -> None:
        if not (0.0 <= self.hazard_fraction <= 1.0):
            raise ValidationError(
                f"hazard_fraction {self.hazard_fraction} outside [0, 1]"
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
                if not isinstance(weight, (int, float)) or not math.isfinite(weight):
                    raise ValidationError(
                        f"{name} weight {weight!r} for {key.value} must be a finite number"
                    )
                if weight < 0:
                    raise ValidationError(f"{name} must be non-negative")
            if not math.isfinite(sum(table.values())):
                raise ValidationError(f"{name} must have a finite total")
        if self.hazard_fraction > 0 and not any(
            w > 0 for w in self.category_weights.values()
        ):
            raise ValidationError("at least one category weight must be positive")
        if not any(w > 0 for w in self.location_weights.values()):
            raise ValidationError("at least one location weight must be positive")


_CROWDS = tuple(CrowdDensity)


def _choice_table(weights: Mapping, allowed=None) -> tuple[tuple, list]:
    """Keys with positive weight (within ``allowed``) and their cumulative
    weights, in table order, as ``random.choices`` accumulates them."""
    items = [
        (key, weight) for key, weight in weights.items()
        if weight > 0 and (allowed is None or key in allowed)
    ]
    if not items:
        # Exemplar constraints can exclude every weighted location; fall
        # back to the allowed set uniformly.
        items = [(key, 1.0) for key in allowed]
    keys, values = zip(*items)
    return keys, list(accumulate(values))


def _weighted_choice(rng: random.Random, table: tuple[tuple, list]):
    keys, cum_weights = table
    return rng.choices(keys, cum_weights=cum_weights)[0]


def generate(seed: int, n: int, mix: MixConfig | None = None) -> list[Scenario]:
    """Generate ``n`` random scenarios, deterministic for a given seed.

    Ground truth comes from the builtin rule table, so every truth is
    band-coherent by construction.  With the default mix each hazard
    category appears at least once whenever ``n`` allows it.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    mix = mix if mix is not None else MixConfig()
    rng = random.Random(seed)
    active_categories = [
        category for category in HazardCategory
        if mix.category_weights.get(category, 0.0) > 0
    ]
    locations = _choice_table(mix.location_weights)
    categories = _choice_table(mix.category_weights) if active_categories else None
    allowed_locations = {
        allowed: _choice_table(mix.location_weights, allowed)
        for pool in _CATEGORY_POOL.values() for _, _, allowed in pool
        if allowed is not None
    }
    allowed_locations[None] = locations
    scenarios = []
    for i in range(n):
        steps = rng.randint(1, 3)
        observations = []
        for t in range(steps):
            force_category = None
            if mix.hazard_fraction > 0 and t == 0 and i < len(active_categories):
                force_category = active_categories[i]
            if force_category is None and (
                mix.hazard_fraction == 0.0 or rng.random() >= mix.hazard_fraction
            ):
                entities = rng.choice(_BENIGN_POOL)
                location = _weighted_choice(rng, locations)
                caption = (
                    f"patrol view of the {location_phrase(location)}"
                    + (f", {entities[0][0]} {entities[0][1]}" if entities else ", clear")
                )
                observations.append(_obs(t, caption, entities, location))
                continue
            category = force_category or _weighted_choice(rng, categories)
            label, attribute, allowed = rng.choice(_CATEGORY_POOL[category])
            location = _weighted_choice(rng, allowed_locations[allowed])
            crowd = rng.choice(_CROWDS)
            caption = f"{label} {attribute} in the {location_phrase(location)}"
            observations.append(_obs(t, caption, [(label, attribute)], location, crowd))
        truths = tuple(truth_from_rules(o) for o in observations)
        scenarios.append(Scenario(f"gen-{seed}-{i:03d}", tuple(observations), truths))
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
        category = enum_from_label(HazardCategory, doc["category"], where)
        level = enum_from_label(Criticality, doc["d"], where)
        tau = enum_from_label(TimeSensitivity, doc["tau"], where)
        phi = enum_from_label(Feasibility, doc["phi"], where)
        grade = enum_from_label(Criticality, doc["k"], where)
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


def scenario_from_dict(doc: dict, where: str) -> Scenario:
    if not isinstance(doc, dict) or "id" not in doc or "steps" not in doc:
        raise ConfigurationError(f"{where}: scenario needs 'id' and 'steps'")
    scenario_id = doc["id"]
    if not isinstance(scenario_id, str):
        raise ConfigurationError(f"{where}: 'id' must be a string, got {scenario_id!r}")
    profile = None
    if doc.get("fault_profile") is not None:
        try:
            profile = FaultProfile(**check_fields(
                doc["fault_profile"], _FAULT_PROFILE_FIELDS, "fault profile"))
        except ValidationError as exc:
            raise ConfigurationError(
                f"{where} ({scenario_id}): invalid fault profile: {exc}"
            ) from exc
    if not isinstance(doc["steps"], list):
        raise ConfigurationError(f"{where} ({scenario_id}): 'steps' must be a list")
    observations = []
    truths = []
    for index, step in enumerate(doc["steps"]):
        step_where = f"{where} ({scenario_id}, step {index})"
        if not isinstance(step, dict) or "observation" not in step:
            raise ConfigurationError(f"{step_where}: step needs an 'observation'")
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
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}: not valid JSON: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigurationError(f"{path}: not valid JSON: nested too deeply") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != SCENARIO_FORMAT:
        raise ConfigurationError(
            f"{path}: expected a {SCENARIO_FORMAT!r} document"
        )
    entries = document.get("scenarios", [])
    if not isinstance(entries, list):
        raise ConfigurationError(f"{path}: 'scenarios' must be a list")
    scenarios = [
        scenario_from_dict(doc, f"{path}: scenario {index}")
        for index, doc in enumerate(entries)
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


# --------------------------------------------------------------------------
# Suite execution


@dataclass
class ScenarioRun:
    """Trace, its wire form and deliveries of one backend on one scenario."""

    scenario_id: str
    trace: list[TraceRecord]
    #: ``record.to_wire()`` of each trace record, built once: the oracle
    #: checks these dicts and the structured report holds them.
    wire: list[dict]
    deliveries: list[list[DeliveryRecord]]
    fallback_steps: int


@dataclass
class BackendResult:
    """Aggregated scoring of one backend over the whole suite."""

    backend: str
    sub_metrics: SubMetrics
    effectiveness: float
    loss: LossAccount
    runs: dict[str, ScenarioRun]
    violations: list[tuple[str, Violation]]
    scenario_accuracy: dict[str, float]


@dataclass
class SuiteReport:
    """Everything a suite execution produced, reproducibly ordered."""

    scenario_ids: list[str]
    backend_names: list[str]
    config: EngineConfig
    results: dict[str, BackendResult]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results.values())

    def to_json_dict(self) -> dict:
        """The structured report as JSON-ready values.

        Each scenario's list under ``"traces"`` is its run's ``wire`` list
        itself, not a copy: the returned dict shares those lists and dicts
        with the report.
        """
        backends = {}
        for name in self.backend_names:
            result = self.results[name]
            backends[name] = {
                "sub_metrics": {
                    "eps_det": result.sub_metrics.eps_det,
                    "eps_msg": result.sub_metrics.eps_msg,
                    "eps_coord": result.sub_metrics.eps_coord,
                    "eps_lat": result.sub_metrics.eps_lat,
                },
                "effectiveness": result.effectiveness,
                "loss": {
                    "l_hazard": result.loss.l_hazard,
                    "l_fatigue": result.loss.l_fatigue,
                    "lambda": result.loss.fatigue_lambda,
                    "total": result.loss.total,
                },
                "scenario_accuracy": result.scenario_accuracy,
                "violations": [
                    {
                        "scenario": scenario_id,
                        "record": v.record_index,
                        "field": v.field,
                        "rule": v.rule,
                        "detail": v.detail,
                    }
                    for scenario_id, v in result.violations
                ],
                "traces": {scenario_id: run.wire for scenario_id, run in result.runs.items()},
            }
        return {
            "format": REPORT_FORMAT,
            "config": {
                "t_max_ticks": self.config.t_max,
                "t_max_seconds": ticks_to_seconds(self.config.t_max),
                "weights": list(self.config.weights),
                "lambda": self.config.fatigue_lambda,
                "suppression_window": self.config.suppression_window,
                "timers": {
                    "t_camera": self.config.timers.t_camera,
                    "t_heatmap": self.config.timers.t_heatmap,
                    "t_llm": self.config.timers.t_llm,
                    "t_comm": self.config.timers.t_comm,
                },
            },
            "scenarios": self.scenario_ids,
            "backends": backends,
            "comparison": self.comparison_rows(),
        }

    def comparison_rows(self) -> list[dict]:
        rows = []
        for name in self.backend_names:
            result = self.results[name]
            rows.append({
                "backend": name,
                "eps_det": result.sub_metrics.eps_det,
                "eps_msg": result.sub_metrics.eps_msg,
                "eps_coord": result.sub_metrics.eps_coord,
                "eps_lat": result.sub_metrics.eps_lat,
                "effectiveness": result.effectiveness,
                "loss_total": result.loss.total,
                "violations": len(result.violations),
            })
        return rows

    def to_text(self) -> str:
        lines = [
            "hazard-communication suite report",
            f"scenarios: {len(self.scenario_ids)}   "
            f"backends: {', '.join(self.backend_names)}",
            f"config: t_max={ticks_to_seconds(self.config.t_max):.1f}s  "
            f"lambda={self.config.fatigue_lambda}  "
            f"weights={'/'.join(str(w) for w in self.config.weights)}",
            "",
            f"{'backend':<20} {'eps_det':>8} {'eps_msg':>8} {'eps_coord':>10} "
            f"{'eps_lat':>8} {'eff':>8} {'l_haz':>7} {'l_fat':>7} {'loss':>8} {'viol':>5}",
        ]
        for row in self.comparison_rows():
            loss = self.results[row["backend"]].loss
            lines.append(
                f"{row['backend']:<20} {row['eps_det']:>8.4f} {row['eps_msg']:>8.4f} "
                f"{row['eps_coord']:>10.4f} {row['eps_lat']:>8.4f} "
                f"{row['effectiveness']:>8.4f} {loss.l_hazard:>7.1f} "
                f"{loss.l_fatigue:>7.1f} {loss.total:>8.1f} {row['violations']:>5d}"
            )
        lines.append("")
        for name in self.backend_names:
            result = self.results[name]
            lines.append(f"per-scenario accuracy ({name}):")
            for scenario_id in self.scenario_ids:
                run = result.runs[scenario_id]
                lines.append(
                    f"  {scenario_id:<24} steps={len(run.trace):<3d} "
                    f"fallbacks={run.fallback_steps:<3d} "
                    f"accuracy={result.scenario_accuracy[scenario_id]:.4f}"
                )
        if self.total_violations:
            lines.append("")
            lines.append("violations:")
            for name in self.backend_names:
                for scenario_id, violation in self.results[name].violations:
                    lines.append(f"  {name} / {scenario_id} / {violation}")
        else:
            lines.append("")
            lines.append("violations: none")
        return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario, backend: Backend, engine: Engine) -> ScenarioRun:
    """Drive one backend through one scenario on ``engine``, reset to a fresh
    virtual clock so that the scenario runs as if alone, and deliver each
    step's output through memory sinks."""
    clock = VirtualClock()
    engine.reset(clock)
    if scenario.fault_profile is not None:
        backend = FaultInjectingBackend(backend, scenario.fault_profile, clock)
    trace: list[TraceRecord] = []
    wire: list[dict] = []
    deliveries: list[list[DeliveryRecord]] = []
    fallback_steps = 0
    step, pop, prefix = engine.step, engine.queue.pop, scenario.scenario_id
    for index, obs in enumerate(scenario.observations):
        output, _, fallback_used, record = step(obs, backend, f"{prefix}:{index}")
        trace.append(record)
        wire.append(record.to_wire())
        fallback_steps += fallback_used
        # A step enqueues at most its one output, and each step drains the queue.
        deliveries.append([] if output is None else dispatch(pop(), _SINKS, clock.now))
    return ScenarioRun(
        scenario_id=scenario.scenario_id,
        trace=trace,
        wire=wire,
        deliveries=deliveries,
        fallback_steps=fallback_steps,
    )


def run_suite(
    scenarios: Sequence[Scenario],
    backends: Mapping[str, Backend],
    config: EngineConfig | None = None,
) -> SuiteReport:
    """Run every backend over every scenario and score the results.

    Each backend runs every scenario on one engine, reset between
    scenarios, and the oracle checks all of its records in one pass.
    Deterministic end to end; any oracle violation is carried in the
    report, never swallowed.
    """
    if not scenarios:
        raise ValidationError("run_suite needs at least one scenario")
    if not backends:
        raise ValidationError("run_suite needs at least one backend")
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate scenario ids in suite")
    config = config if config is not None else EngineConfig()

    results: dict[str, BackendResult] = {}
    for name, backend in backends.items():
        engine = Engine(config=config)
        runs: dict[str, ScenarioRun] = {}
        scenario_accuracy: dict[str, float] = {}
        all_trace: list[TraceRecord] = []
        all_wire: list[dict] = []
        all_truth: list[Optional[StepTruth]] = []
        all_deliveries: list[list[DeliveryRecord]] = []
        l_hazard = 0.0
        l_fatigue = 0.0
        for scenario in scenarios:
            run = run_scenario(scenario, backend, engine)
            runs[scenario.scenario_id] = run
            truth = scenario.ground_truth
            scenario_accuracy[scenario.scenario_id] = detection_accuracy(
                run.trace, truth
            )
            loss = objective_loss(
                run.trace, truth, config.fatigue_lambda, config.t_max,
                config.suppression_window,
            )
            l_hazard += loss.l_hazard
            l_fatigue += loss.l_fatigue
            all_trace += run.trace
            all_wire += run.wire
            all_truth += truth
            all_deliveries += run.deliveries

        violations: list[tuple[str, Violation]] = []
        found = oracle_verify(all_wire)
        if found:
            # Each violation belongs to the scenario whose records hold its
            # index, at that index less the scenario's first record's.
            starts = list(accumulate((len(s.observations) for s in scenarios), initial=0))
            for violation in found:
                at = bisect_right(starts, violation.record_index) - 1
                violations.append((ids[at], replace(
                    violation, record_index=violation.record_index - starts[at]
                )))

        mean_latency = sum(r.t_total for r in all_trace) / len(all_trace)
        sub = SubMetrics(
            eps_det=detection_accuracy(all_trace, all_truth),
            eps_msg=message_alignment(all_trace, all_truth),
            eps_coord=coordination_success(all_deliveries, all_trace),
            eps_lat=latency_compliance(mean_latency, config.t_max),
        )
        results[name] = BackendResult(
            backend=name,
            sub_metrics=sub,
            effectiveness=effectiveness(sub, config.weights),
            loss=LossAccount(l_hazard, l_fatigue, config.fatigue_lambda),
            runs=runs,
            violations=violations,
            scenario_accuracy=scenario_accuracy,
        )
    return SuiteReport(
        scenario_ids=ids,
        backend_names=list(backends.keys()),
        config=config,
        results=results,
    )
