"""Effectiveness scoring: the four sub-metrics, their weighted aggregate,
and the hazard/fatigue loss accounting.

All functions are pure over immutable trace snapshots; independent traces
can be scored in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Criticality,
    Feasibility,
    HazardCategory,
    TimeSensitivity,
    ValidationError,
    band_risk,
    character_for,
    recipients_for,
    tone_in_band,
    RiskScore,
)
from .dispatch import DeliveryRecord
from .engine import TraceRecord


@dataclass(frozen=True)
class StepTruth:
    """Ground truth for one observation that does contain a hazard.

    ``criticality`` is the one grade: it is both the declared severity
    level and the overall criticality.  An optional reference score, when
    present, must band to it.
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
class SubMetrics:
    """The four effectiveness components, each clamped to [0, 1]."""

    eps_det: float
    eps_msg: float
    eps_coord: float
    eps_lat: float

    def __post_init__(self) -> None:
        for name in ("eps_det", "eps_msg", "eps_coord", "eps_lat"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, min(1.0, max(0.0, value)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.eps_det, self.eps_msg, self.eps_coord, self.eps_lat)


@dataclass(frozen=True)
class LossAccount:
    """Hazard loss plus fatigue loss weighted by the trade-off factor."""

    l_hazard: float
    l_fatigue: float
    fatigue_lambda: float

    def __post_init__(self) -> None:
        if self.l_hazard < 0 or self.l_fatigue < 0:
            raise ValidationError("loss terms must be non-negative")
        if self.fatigue_lambda <= 0:
            raise ValidationError("fatigue_lambda must be positive")
        # A finite lambda large enough overflows the total, which no report
        # can hold.
        if not math.isfinite(self.total):
            raise ValidationError(
                f"non-finite loss total: l_hazard {self.l_hazard} + lambda "
                f"{self.fatigue_lambda} * l_fatigue {self.l_fatigue} = {self.total}"
            )

    @property
    def total(self) -> float:
        return self.l_hazard + self.fatigue_lambda * self.l_fatigue


def effectiveness(sub: SubMetrics, weights: Sequence[float]) -> float:
    """Weighted combination of the four sub-metrics.

    Weights must be four non-negative reals summing to 1 (tolerance 1e-9);
    the result lies in [0, 1].  Zero means the system is inactive.
    """
    if len(weights) != 4:
        raise ValidationError(f"expected 4 weights, got {len(weights)}")
    if any((not math.isfinite(w)) or w < 0 for w in weights):
        raise ValidationError(f"weights must be non-negative reals: {list(weights)}")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1, got {sum(weights)}")
    value = sum(w * e for w, e in zip(weights, sub.as_tuple()))
    return min(1.0, max(0.0, value))


def latency_compliance(t_total: float, t_max: float) -> float:
    """1 - t_total/t_max, clamped below at 0 so overruns score zero."""
    if t_max <= 0:
        raise ValidationError(f"t_max must be positive, got {t_max}")
    if t_total < 0:
        raise ValidationError(f"t_total must be >= 0, got {t_total}")
    return max(0.0, 1.0 - t_total / t_max)


def _check_aligned(trace: Sequence, truth: Sequence) -> None:
    if len(trace) != len(truth):
        raise ValidationError(
            f"trace has {len(trace)} steps but truth has {len(truth)}"
        )


def detection_accuracy(
    trace: Sequence[TraceRecord], truth: Sequence[Optional[StepTruth]]
) -> float:
    """Fraction of steps whose (category, criticality) both match truth.

    No-hazard steps count as matches only when the trace also reports no
    hazard.  Criticality must match as well as category: the grade is what
    drives action, so category-only credit would overstate performance.
    """
    _check_aligned(trace, truth)
    if not trace:
        raise ValidationError("accuracy undefined for an empty trace")
    matches = 0
    for record, expected in zip(trace, truth):
        if expected is None:
            matches += record.criticality is None
        else:
            matches += (
                record.category is expected.category
                and record.criticality is expected.criticality
            )
    return matches / len(trace)


def message_alignment(
    trace: Sequence[TraceRecord], truth: Sequence[Optional[StepTruth]]
) -> float:
    """Fraction of hazard steps whose tone band and character match the
    truth criticality.  Vacuously 1.0 when the truth has no hazards."""
    _check_aligned(trace, truth)
    hazard_steps = 0
    aligned = 0
    for record, expected in zip(trace, truth):
        if expected is None:
            continue
        hazard_steps += 1
        if record.tone is None or record.character is None:
            continue
        if tone_in_band(record.tone, expected.criticality) and (
            record.character is character_for(expected.criticality)
        ):
            aligned += 1
    if hazard_steps == 0:
        return 1.0
    return aligned / hazard_steps


def coordination_success(
    deliveries: Sequence[Sequence[DeliveryRecord]],
    trace: Sequence[TraceRecord],
) -> float:
    """Fraction of output steps whose delivered channel set is exactly the
    one their criticality mandates, with every delivery succeeding.

    ``deliveries`` is aligned per step; records on a step that produced no
    output are orphans and rejected.
    """
    _check_aligned(deliveries, trace)
    output_steps = 0
    routed = 0
    for index, (records, step) in enumerate(zip(deliveries, trace)):
        if step.criticality is None:
            if records:
                raise ValidationError(
                    f"step {index}: {len(records)} delivery records but no output"
                )
            continue
        output_steps += 1
        # A failed or repeated delivery leaves fewer channels than records.
        delivered = {r.channel for r in records if r.success}
        if len(delivered) == len(records) and delivered == recipients_for(step.criticality):
            routed += 1
    if output_steps == 0:
        return 1.0
    return routed / output_steps


SEVERITY_WEIGHTS = {
    Criticality.LOW: 1.0,
    Criticality.MEDIUM: 2.0,
    Criticality.HIGH: 4.0,
}


def objective_loss(
    trace: Sequence[TraceRecord],
    truth: Sequence[Optional[StepTruth]],
    fatigue_lambda: float,
    t_max: int,
    suppression_window: int = 50,
) -> LossAccount:
    """Proxy losses over one run.

    Hazard loss: for each truth hazard step with no correctly-graded output
    delivered within the budget, add that step's severity weight (Low 1,
    Medium 2, High 4).  Fatigue loss: one point per alarm on a truth-Low
    step, plus one per repeated identical alert (same category and grade)
    within the suppression window.
    """
    l_hazard, l_fatigue = _loss_terms(trace, truth, t_max, suppression_window)
    return LossAccount(l_hazard=l_hazard, l_fatigue=l_fatigue, fatigue_lambda=fatigue_lambda)


def _loss_terms(
    trace: Sequence[TraceRecord],
    truth: Sequence[Optional[StepTruth]],
    t_max: int,
    suppression_window: int,
) -> tuple[float, float]:
    """``(l_hazard, l_fatigue)`` of one run, as :func:`objective_loss` defines
    them.  Both are sums of 1.0, 2.0 and 4.0, so the terms of several runs
    add up exactly."""
    _check_aligned(trace, truth)
    l_hazard = 0.0
    l_fatigue = 0.0
    last_seen: dict[tuple, int] = {}
    for record, expected in zip(trace, truth):
        criticality = record.criticality
        if expected is not None and not (
            criticality is expected.criticality and record.t_total <= t_max
        ):
            l_hazard += SEVERITY_WEIGHTS[expected.criticality]
        if criticality is None:
            continue
        if expected is not None and expected.criticality is Criticality.LOW and record.alarm:
            l_fatigue += 1.0
        key = (record.category, criticality)
        previous = last_seen.get(key)
        if previous is not None and record.tick - previous <= suppression_window:
            l_fatigue += 1.0
        last_seen[key] = record.tick
    return l_hazard, l_fatigue
