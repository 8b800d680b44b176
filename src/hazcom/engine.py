"""Per-tick pipeline engine.

Each step: charge the stage timers on the virtual clock, call the backend,
grade and assemble the communication, latch or clear the alarm, and enqueue
the output for priority dispatch.  A budget overrun or backend failure
routes to a pre-formulated fallback alert built from the last known
criticality, so communication is never fully blocked.

The engine is a single logical event loop owning its state; backends may
run elsewhere but results are applied serially in step order.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .clock import Clock, VirtualClock
from .core import (
    Channel,
    Character,
    CommOutput,
    Criticality,
    Feasibility,
    HazardCategory,
    RECIPIENTS_IN_ORDER,
    REPRESENTATIVE_RISK,
    RiskScore,
    TemplateTable,
    TimeSensitivity,
    ValidationError,
    assemble_output,
    band_risk,
    enum_from_label,
    policy_output,
)
from .perception import Backend, BackendError, HazardAssessment, Observation


@dataclass(frozen=True)
class StageTimers:
    """Stage durations of one step in ticks (0.1 s each).

    Defaults follow the measured deployment profile: 2.5 s onboard
    (camera 1.0 s + saliency map 1.5 s), 9.5 s model round-trip, and
    negligible local communication time.  As the engine's nominal profile,
    ``t_llm`` is the backend cost for backends that do not consume clock
    time themselves; clock-advancing wrappers (fault injection, virtual
    transports) stack on top of it.
    """

    t_camera: int = 10
    t_heatmap: int = 15
    t_llm: int = 95
    t_comm: int = 0

    def __post_init__(self) -> None:
        for name in ("t_camera", "t_heatmap", "t_llm", "t_comm"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        """Total step latency: the exact sum of the four stage durations."""
        return self.t_camera + self.t_heatmap + self.t_llm + self.t_comm


@dataclass(frozen=True)
class EngineConfig:
    """Engine and scoring knobs.

    ``t_max`` is the total latency budget in ticks (default 20 s); the
    effectiveness weights and fatigue trade-off live here so a whole run is
    described by one value.
    """

    t_max: int = 200
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    fatigue_lambda: float = 1.0
    timers: StageTimers = field(default_factory=StageTimers)
    suppression_window: int = 50

    def __post_init__(self) -> None:
        if self.t_max <= 0:
            raise ValidationError(f"t_max must be positive, got {self.t_max}")
        if self.fatigue_lambda <= 0:
            raise ValidationError(
                f"fatigue_lambda must be positive, got {self.fatigue_lambda}"
            )
        if self.suppression_window < 0:
            raise ValidationError("suppression_window must be >= 0")
        if len(self.weights) != 4 or any(w < 0 for w in self.weights):
            raise ValidationError("weights must be four non-negative reals")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {sum(self.weights)}")


@dataclass(frozen=True)
class TraceRecord:
    """One step of the trajectory, as written to the trace log."""

    tick: int
    obs_id: str
    category: HazardCategory | None
    level: Criticality | None
    time_sensitivity: TimeSensitivity | None
    feasibility: Feasibility | None
    risk: float | None
    criticality: Criticality | None
    tone: float | None
    character: Character | None
    alarm: bool
    recipients: tuple[Channel, ...]
    t_total: int
    fallback: bool
    text: str | None

    def to_wire(self) -> dict:
        # Labels are read from each member's stored ``_value_``: the ``.value``
        # descriptor costs ten times as much, and every record is encoded often.
        return {
            "tick": self.tick,
            "obs_id": self.obs_id,
            "category": self.category._value_ if self.category else None,
            "d": self.level._value_ if self.level else None,
            "tau": self.time_sensitivity._value_ if self.time_sensitivity else None,
            "phi": self.feasibility._value_ if self.feasibility else None,
            "rho": self.risk,
            "k": self.criticality._value_ if self.criticality else None,
            "gamma": self.tone,
            "chi": self.character._value_ if self.character else None,
            "alarm": self.alarm,
            "recipients": [c._value_ for c in self.recipients],
            "t_total": self.t_total,
            "fallback": self.fallback,
            "text": self.text,
        }

    @classmethod
    def from_wire(cls, doc: dict, where: str = "record") -> "TraceRecord":
        if not isinstance(doc, dict):
            raise ValidationError(f"{where}: not an object")
        if not _REQUIRED_WIRE_KEYS <= doc.keys():
            missing = sorted(_REQUIRED_WIRE_KEYS - doc.keys())
            raise ValidationError(f"{where}: missing fields {missing}")
        recipients = doc["recipients"]
        if not isinstance(recipients, list):
            raise ValidationError(f"{where}: 'recipients' must be a list")
        text = doc.get("text")
        if not isinstance(text, (str, type(None))):
            raise ValidationError(f"{where}: 'text' must be a string or null")
        get, label = doc.get, enum_from_label
        try:
            return cls(
                int(doc["tick"]),
                str(doc["obs_id"]),
                None if (v := get("category")) is None else label(HazardCategory, v, where),
                None if (v := get("d")) is None else label(Criticality, v, where),
                None if (v := get("tau")) is None else label(TimeSensitivity, v, where),
                None if (v := get("phi")) is None else label(Feasibility, v, where),
                None if (v := doc["rho"]) is None else float(v),
                None if (v := doc["k"]) is None else label(Criticality, v, where),
                None if (v := doc["gamma"]) is None else float(v),
                None if (v := doc["chi"]) is None else label(Character, v, where),
                bool(doc["alarm"]),
                tuple(label(Channel, c, where) for c in recipients),
                int(doc["t_total"]),
                bool(doc["fallback"]),
                text,
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc


_REQUIRED_WIRE_KEYS = frozenset({"tick", "obs_id", "rho", "k", "gamma", "chi", "alarm",
                                 "recipients", "t_total", "fallback"})
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True)


def write_trace(path: str | Path, records: Iterable[TraceRecord]) -> None:
    """Append step records to a trace log, one sorted-key JSON document per line."""
    encode = _TRACE_ENCODER.encode
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record.to_wire()) + "\n")


def read_json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """Yield ``("<path>:<line>", document)`` for each non-blank line.

    An unreadable file, bytes that are not UTF-8 and a line that is not
    JSON each raise :class:`ValidationError` naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{line_no}"
                try:
                    doc = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise ValidationError(f"{where}: not JSON: {exc}") from exc
                yield where, doc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Parse a trace log written by :func:`write_trace`."""
    return [TraceRecord.from_wire(doc, where) for where, doc in read_json_lines(path)]


class PendingQueue:
    """Pending communications ordered by (criticality desc, risk desc, FIFO)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, float, int, CommOutput]] = []
        self._seq = 0

    def push(self, output: CommOutput) -> None:
        key = (-output.criticality.rank, -output.risk.value, self._seq)
        heapq.heappush(self._heap, (*key, output))
        self._seq += 1

    def pop(self) -> Optional[CommOutput]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[3]

    def snapshot(self) -> list[CommOutput]:
        """Queue contents in dispatch order, without consuming them."""
        return [entry[3] for entry in sorted(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class StepResult:
    """Outcome of one engine step."""

    output: Optional[CommOutput]
    timers: StageTimers
    fallback_used: bool
    record: TraceRecord


# Pre-formulated fallback alerts: fixed text per criticality.
_FALLBACK_TEXT = {
    Criticality.LOW: (
        "Notice: a monitored situation nearby could not be re-checked in "
        "time; it previously appeared minor. The robot is re-assessing."
    ),
    Criticality.MEDIUM: (
        "Alert: a potential hazard nearby could not be fully assessed in "
        "time. Please check the immediate area; alarm activated."
    ),
    Criticality.HIGH: (
        "Urgent: assessment of a high-risk hazard nearby is delayed. Treat "
        "the area as hazardous and keep clear; alarm activated and "
        "responders have been notified."
    ),
}


@lru_cache(maxsize=4)
def fallback_output(last_known: Criticality | None) -> CommOutput:
    """Conservative pre-formulated alert from the last known criticality.

    With no prior classification the alert grades Medium: enough to raise
    attention without maximal escalation.  Each alert is built once, then shared.
    """
    criticality = last_known if last_known is not None else Criticality.MEDIUM
    return policy_output(
        _FALLBACK_TEXT[criticality], RiskScore(REPRESENTATIVE_RISK[criticality]), None
    )


class Engine:
    """The event-loop core: alarm latch, last-known criticality, pending
    queue, stage timing, and the budget-checked fallback path."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        clock: Clock | None = None,
        templates: TemplateTable | None = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.templates = templates
        self.alarm_latched = False
        self.last_known_criticality: Criticality | None = None
        self.queue = PendingQueue()
        self._step_index = 0

    def apply_fallback(self) -> CommOutput:
        """Build the fallback alert for the current state.

        Meant for the degraded path only: when the budget is exceeded or
        the backend failed.
        """
        return fallback_output(self.last_known_criticality)

    def enqueue(self, output: CommOutput) -> None:
        self.queue.push(output)

    def dequeue(self) -> Optional[CommOutput]:
        return self.queue.pop()

    def step(
        self,
        obs: Observation,
        backend: Backend,
        obs_id: str | None = None,
    ) -> StepResult:
        """Run one observation through the pipeline.

        Backend errors never escape: they are absorbed into the fallback
        path and recorded.  Every step yields either an output (enqueued
        for dispatch) or an explicit no-hazard record.
        """
        profile = self.config.timers
        if obs_id is None:
            obs_id = f"step-{self._step_index:05d}"
        self._step_index += 1

        start = self.clock.now
        self.clock.advance(profile.t_camera)
        self.clock.advance(profile.t_heatmap)

        llm_start = self.clock.now
        self.clock.advance(profile.t_llm)
        assessment: Optional[HazardAssessment] = None
        backend_failed = False
        try:
            assessment = backend.assess(obs)
        except BackendError:
            backend_failed = True
        t_llm = self.clock.now - llm_start

        timers = (
            profile if t_llm == profile.t_llm
            else StageTimers(profile.t_camera, profile.t_heatmap, t_llm, profile.t_comm)
        )
        output: Optional[CommOutput] = None
        fallback_used = False
        if backend_failed:
            # No information at all: dispatch the conservative alert.
            self.clock.advance(profile.t_comm)
            output = self.apply_fallback()
            fallback_used = True
        elif assessment is None:
            # Explicit no-hazard: clear the alarm, nothing to say.
            self.alarm_latched = False
            if timers.t_comm:
                timers = StageTimers(profile.t_camera, profile.t_heatmap, t_llm, 0)
        else:
            self.clock.advance(profile.t_comm)
            if timers.total > self.config.t_max:
                # The verdict arrived past the deadline; the pre-formulated
                # alert from the last known criticality goes out instead.
                output = self.apply_fallback()
                fallback_used = True
            else:
                output = assemble_output(
                    assessment.category, assessment.risk, obs.env,
                    table=self.templates,
                )
            self.last_known_criticality = band_risk(assessment.risk)

        if output is not None:
            self.alarm_latched = output.alarm
            self.enqueue(output)

        record = self._record(
            obs_id, start, assessment if not fallback_used else None,
            output, timers, fallback_used,
        )
        return StepResult(
            output=output, timers=timers, fallback_used=fallback_used, record=record
        )

    def _record(
        self,
        obs_id: str,
        tick: int,
        assessment: Optional[HazardAssessment],
        output: Optional[CommOutput],
        timers: StageTimers,
        fallback_used: bool,
    ) -> TraceRecord:
        if output is None:
            return TraceRecord(
                tick=tick, obs_id=obs_id, category=None, level=None,
                time_sensitivity=None, feasibility=None, risk=None,
                criticality=None, tone=None, character=None, alarm=False,
                recipients=(), t_total=timers.total, fallback=False, text=None,
            )
        return TraceRecord(
            tick=tick,
            obs_id=obs_id,
            category=output.category,
            level=assessment.factors.criticality_level if assessment else None,
            time_sensitivity=assessment.factors.time_sensitivity if assessment else None,
            feasibility=assessment.factors.feasibility if assessment else None,
            risk=output.risk.value,
            criticality=output.criticality,
            tone=output.message.tone,
            character=output.message.character,
            alarm=output.alarm,
            recipients=RECIPIENTS_IN_ORDER[output.criticality],
            t_total=timers.total,
            fallback=fallback_used,
            text=output.message.text,
        )
