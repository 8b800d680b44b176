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
import math
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
    Label,
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
        # NaN fails every comparison, and ``< math.inf`` rejects infinity.
        if not 0 < self.t_max < math.inf:
            raise ValidationError(f"t_max must be positive and finite, got {self.t_max}")
        if not 0 < self.fatigue_lambda < math.inf:
            raise ValidationError(
                f"fatigue_lambda must be positive and finite, got {self.fatigue_lambda}"
            )
        if not 0 <= self.suppression_window < math.inf:
            raise ValidationError(
                f"suppression_window must be >= 0 and finite, got {self.suppression_window}"
            )
        if len(self.weights) != 4 or not all(0 <= w < math.inf for w in self.weights):
            raise ValidationError("weights must be four non-negative finite reals")
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
        # is checked against its row of TRACE_FIELDS and each label is looked
        # up in its field's label dict.  Anything else, including an absent
        # optional key, takes the checked path, which gives the record or the
        # message.
        if type(doc) is dict:
            try:
                values = []
                append = values.append
                for key, labels, types, as_float in _FAST_FIELDS:
                    value = doc[key]
                    if not types:
                        append(labels[value])
                    elif type(value) not in types:
                        break
                    elif labels is not None:
                        append(tuple(map(labels.__getitem__, value)))
                    else:
                        append(float(value) if as_float and type(value) is int else value)
                else:
                    return cls._make(values)
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
        values = []
        try:
            for key, enum, types, what, _ in TRACE_FIELDS:
                value = doc.get(key)
                if not types:
                    value = None if value is None else enum_from_label(enum, value, where)
                elif type(value) not in types:
                    # int() and float() name a value that is no number at
                    # all; a look-alike they accept, such as 1.7, "120" or
                    # true, gets the type message.
                    if int in types:
                        (float if float in types else int)(value)
                    raise ValidationError(f"{key!r} must be {what}, got {value!r}")
                elif enum is not None:
                    value = tuple(enum_from_label(enum, item, where) for item in value)
                elif float in types and type(value) is int:
                    value = float(value)
                values.append(value)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        return cls._make(values)


class WireField(NamedTuple):
    """One key of a trace line and what its value must be."""

    key: str
    #: The enum of a label field, or of each item of a list of labels.
    enum: type[Label] | None
    #: The JSON types the value may have, and how messages name them; a
    #: label field, which holds a label or null, has none.
    types: tuple[type, ...] = ()
    what: str = ""
    required: bool = True


_NUMBER = (float, int, type(None))
#: The trace line, one row per key in :class:`TraceRecord` field order: the
#: one statement of the schema, from which the reader and the oracle's shape
#: checks derive theirs.
TRACE_FIELDS = (
    WireField("tick", None, (int,), "an integer"),
    WireField("obs_id", None, (str,), "a string"),
    WireField("category", HazardCategory, required=False),
    WireField("d", Criticality),
    WireField("tau", TimeSensitivity),
    WireField("phi", Feasibility),
    WireField("rho", None, _NUMBER, "a number or null"),
    WireField("k", Criticality),
    WireField("gamma", None, _NUMBER, "a number or null"),
    WireField("chi", Character),
    WireField("alarm", None, (bool,), "true or false"),
    WireField("recipients", Channel, (list,), "a list"),
    WireField("t_total", None, (int,), "an integer"),
    WireField("fallback", None, (bool,), "true or false"),
    WireField("text", None, (str, type(None)), "a string or null", required=False),
)
_REQUIRED_WIRE_KEYS = frozenset(f.key for f in TRACE_FIELDS if f.required)
#: Each label field's label dict, null mapping to None; a list of labels
#: holds no null.
_LABELS = {
    f.key: members_by_label(f.enum) if f.types else {**members_by_label(f.enum), None: None}
    for f in TRACE_FIELDS if f.enum is not None
}
# The fast path's view of each row: key, label dict, JSON types, and whether
# an integer is read as a float.
_FAST_FIELDS = tuple(
    (f.key, _LABELS.get(f.key), f.types, float in f.types) for f in TRACE_FIELDS
)

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

    def __len__(self) -> int:
        return len(self._heap)


class StepResult(NamedTuple):
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
        self.templates = templates
        self.reset(clock if clock is not None else VirtualClock())

    def reset(self, clock: Clock) -> None:
        """Forget every earlier step and go on from ``clock``: no alarm, no
        last known criticality, nothing pending."""
        self.clock = clock
        self.alarm_latched = False
        self.last_known_criticality: Criticality | None = None
        self.queue = PendingQueue()
        self._step_index = 0

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
        clock.advance(profile.t_camera + profile.t_heatmap)
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
