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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

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
    members_by_label,
    policy_output,
)
from .perception import Backend, Observation


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


class TraceRecord(NamedTuple):
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
        (tick, obs_id, category, level, time_sensitivity, feasibility, risk,
         criticality, tone, character, alarm, recipients, t_total, fallback, text) = self
        return {
            "tick": tick,
            "obs_id": obs_id,
            "category": category._value_ if category is not None else None,
            "d": level._value_ if level is not None else None,
            "tau": time_sensitivity._value_ if time_sensitivity is not None else None,
            "phi": feasibility._value_ if feasibility is not None else None,
            "rho": risk,
            "k": criticality._value_ if criticality is not None else None,
            "gamma": tone,
            "chi": character._value_ if character is not None else None,
            "alarm": alarm,
            "recipients": [c._value_ for c in recipients],
            "t_total": t_total,
            "fallback": fallback,
            "text": text,
        }

    @classmethod
    def from_wire(cls, doc: dict, where: str = "record") -> "TraceRecord":
        # A well-formed line decodes with subscripts alone: each scalar's type
        # is checked against _WIRE_SCALAR_TYPES and each label is looked up in
        # its enum's label dict.  Anything else, including an absent optional
        # key, takes the checked path, which gives the record or the message.
        if type(doc) is dict:
            try:
                for key, types, _ in _WIRE_SCALAR_TYPES:
                    if type(doc[key]) not in types:
                        break
                else:
                    recipients, text = doc["recipients"], doc["text"]
                    if type(recipients) is list and (text is None or type(text) is str):
                        rho, gamma = doc["rho"], doc["gamma"]
                        return cls(
                            doc["tick"],
                            doc["obs_id"],
                            _CATEGORIES[doc["category"]],
                            _CRITICALITIES[doc["d"]],
                            _TIME_SENSITIVITIES[doc["tau"]],
                            _FEASIBILITIES[doc["phi"]],
                            float(rho) if type(rho) is int else rho,
                            _CRITICALITIES[doc["k"]],
                            float(gamma) if type(gamma) is int else gamma,
                            _CHARACTERS[doc["chi"]],
                            doc["alarm"],
                            tuple(map(_CHANNELS.__getitem__, recipients)),
                            doc["t_total"],
                            doc["fallback"],
                            text,
                        )
            except (KeyError, TypeError, OverflowError):
                pass
        return cls._from_wire_checked(doc, where)

    @classmethod
    def _from_wire_checked(cls, doc: dict, where: str) -> "TraceRecord":
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
            record = cls(
                int(doc["tick"]),
                doc["obs_id"],
                None if (v := get("category")) is None else label(HazardCategory, v, where),
                None if (v := get("d")) is None else label(Criticality, v, where),
                None if (v := get("tau")) is None else label(TimeSensitivity, v, where),
                None if (v := get("phi")) is None else label(Feasibility, v, where),
                None if (v := doc["rho"]) is None else float(v),
                None if (v := doc["k"]) is None else label(Criticality, v, where),
                None if (v := doc["gamma"]) is None else float(v),
                None if (v := doc["chi"]) is None else label(Character, v, where),
                doc["alarm"],
                tuple(label(Channel, c, where) for c in recipients),
                int(doc["t_total"]),
                doc["fallback"],
                text,
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        # int() and float() above also accept look-alikes such as 1.7, "120"
        # and true, and obs_id, alarm and fallback are taken as read, so each
        # scalar must already have its wire type.
        for key, types, what in _WIRE_SCALAR_TYPES:
            if type(doc[key]) not in types:
                raise ValidationError(f"{where}: {key!r} must be {what}, got {doc[key]!r}")
        return record


_REQUIRED_WIRE_KEYS = frozenset({"tick", "obs_id", "rho", "k", "gamma", "chi", "alarm",
                                 "recipients", "t_total", "fallback"})
_WIRE_SCALAR_TYPES = (
    ("tick", (int,), "an integer"),
    ("obs_id", (str,), "a string"),
    ("rho", (float, int, type(None)), "a number or null"),
    ("gamma", (float, int, type(None)), "a number or null"),
    ("alarm", (bool,), "true or false"),
    ("t_total", (int,), "an integer"),
    ("fallback", (bool,), "true or false"),
)
# Label dicts of the trace's label fields; null maps to None.
_CATEGORIES = {**members_by_label(HazardCategory), None: None}
_CRITICALITIES = {**members_by_label(Criticality), None: None}
_TIME_SENSITIVITIES = {**members_by_label(TimeSensitivity), None: None}
_FEASIBILITIES = {**members_by_label(Feasibility), None: None}
_CHARACTERS = {**members_by_label(Character), None: None}
_CHANNELS = members_by_label(Channel)

_TRACE_ENCODER = json.JSONEncoder(sort_keys=True)
_JSON_DECODER = json.JSONDecoder()
# The fields that change from step to step, in the order the sorted-key
# encoder writes them, each with the value a placeholder record gives it.
_PER_STEP_FIELDS = (("gamma", "null"), ("obs_id", '""'), ("rho", "null"), ("tick", "0"))


@lru_cache(maxsize=1024)
def _line_fragments(
    category, level, time_sensitivity, feasibility, criticality, character,
    alarm, recipients, t_total, fallback, text,
) -> tuple[str, str, str, str, str]:
    """The encoder's line for a record with these fields, cut where gamma,
    obs_id, rho and tick go: five fragments, the last ending the line.

    Searching for ``"key": value`` finds the key itself, because every
    quote inside an encoded string value is escaped."""
    line = _TRACE_ENCODER.encode(TraceRecord(
        0, "", category, level, time_sensitivity, feasibility, None, criticality,
        None, character, alarm, recipients, t_total, fallback, text,
    ).to_wire())
    fragments = []
    for key, placeholder in _PER_STEP_FIELDS:
        head, _, line = line.partition(f'"{key}": {placeholder}')
        fragments.append(f'{head}"{key}": ')
    return (*fragments, line + "\n")


def write_trace(path: str | Path, records: Iterable[TraceRecord]) -> None:
    """Append step records to a trace log, one sorted-key JSON document per line.

    Each line is ``json.dumps(record.to_wire(), sort_keys=True)`` to the byte.
    The records of a run repeat a few dozen combinations of labels, text and
    flags, so a line is built from its combination's cached fragments and
    only tick, obs_id, rho and gamma are formatted.  A record holding any
    value the fragments cannot reproduce exactly (a non-finite or integer
    score, a bool tick, a list of recipients, ...) goes through the encoder.
    """
    encode, fragments, quote = _TRACE_ENCODER.encode, _line_fragments, encode_basestring_ascii
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            (tick, obs_id, category, level, time_sensitivity, feasibility, rho,
             criticality, gamma, character, alarm, recipients, t_total, fallback,
             text) = record
            if (type(tick) is int and type(obs_id) is str
                    and (rho is None or type(rho) is float and rho - rho == 0.0)
                    and (gamma is None or type(gamma) is float and gamma - gamma == 0.0)
                    and type(alarm) is bool and type(recipients) is tuple
                    and type(t_total) is int and type(fallback) is bool
                    and (text is None or type(text) is str)):
                head, after_gamma, after_id, after_rho, tail = fragments(
                    category, level, time_sensitivity, feasibility, criticality,
                    character, alarm, recipients, t_total, fallback, text,
                )
                fh.write(
                    f"{head}{'null' if gamma is None else gamma}{after_gamma}"
                    f"{quote(obs_id)}{after_id}{'null' if rho is None else rho}"
                    f"{after_rho}{tick}{tail}"
                )
            else:
                fh.write(encode(record.to_wire()) + "\n")


def read_json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """Yield ``("<path>:<line>", document)`` for each non-blank line.

    An unreadable file, bytes that are not UTF-8 and a line that is not
    JSON each raise :class:`ValidationError` naming the path.  Only JSON's
    own whitespace is stripped, so a line that ``json.loads`` rejects, such
    as one ending in a vertical tab or U+2028, is not JSON here either.
    """
    decode, prefix = _JSON_DECODER.raw_decode, f"{path}:"
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip(" \t\r\n")
                if not line:
                    continue
                where = f"{prefix}{line_no}"
                # On a stripped line, a value that ends the line is what
                # json.loads returns; anything else goes to json.loads for
                # its verdict and exact message.
                try:
                    doc, end = decode(line)
                except (json.JSONDecodeError, RecursionError):
                    end = -1
                if end != len(line):
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


# Stands in for the verdict of a backend that raised.
_BACKEND_FAILED = object()


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

        No exception a backend raises escapes: each is absorbed into the
        fallback path and recorded.  Every step yields either an output
        (enqueued for dispatch) or an explicit no-hazard record.
        """
        profile, clock = self.config.timers, self.clock
        if obs_id is None:
            obs_id = f"step-{self._step_index:05d}"
        self._step_index += 1

        start = clock.now
        clock.advance(profile.t_camera)
        clock.advance(profile.t_heatmap)
        llm_start = clock.now
        clock.advance(profile.t_llm)
        try:
            assessment = backend.assess(obs)
        except Exception:  # whatever a backend raises, the fallback alert goes out
            assessment = _BACKEND_FAILED
        t_llm = clock.now - llm_start
        timers = (
            profile if t_llm == profile.t_llm
            else StageTimers(profile.t_camera, profile.t_heatmap, t_llm, profile.t_comm)
        )

        if assessment is None:
            # Explicit no-hazard: clear the alarm, nothing to say, no t_comm.
            self.alarm_latched = False
            if timers.t_comm:
                timers = StageTimers(profile.t_camera, profile.t_heatmap, t_llm, 0)
            return StepResult(None, timers, False, TraceRecord(
                start, obs_id, None, None, None, None, None, None, None, None,
                False, (), timers.total, False, None,
            ))

        clock.advance(profile.t_comm)
        t_total = timers.total
        level = time_sensitivity = feasibility = None
        if assessment is _BACKEND_FAILED:
            # No information at all: dispatch the conservative alert.
            output = fallback_output(self.last_known_criticality)
            fallback_used = True
        elif t_total > self.config.t_max:
            # The verdict arrived past the deadline; the pre-formulated alert
            # from the last known criticality goes out instead, and the late
            # verdict's grade becomes the last known one only after that.
            output = fallback_output(self.last_known_criticality)
            self.last_known_criticality = band_risk(assessment.risk)
            fallback_used = True
        else:
            output = assemble_output(
                assessment.category, assessment.risk, obs.env, table=self.templates,
            )
            self.last_known_criticality = output.criticality
            factors = assessment.factors
            level = factors.criticality_level
            time_sensitivity = factors.time_sensitivity
            feasibility = factors.feasibility
            fallback_used = False
        self.alarm_latched = alarm = output.alarm
        self.queue.push(output)
        message, criticality = output.message, output.criticality
        return StepResult(output, timers, fallback_used, TraceRecord(
            start, obs_id, output.category, level, time_sensitivity, feasibility,
            output.risk.value, criticality, message.tone, message.character, alarm,
            RECIPIENTS_IN_ORDER[criticality], t_total, fallback_used, message.text,
        ))
