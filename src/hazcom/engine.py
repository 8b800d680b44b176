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


# The off-nominal timers of a step, one validated instance per distinct
# value: delays repeat, and a frozen instance can be shared.  ``typed`` keeps
# an int and an equal float apart; a value that fails validation raises each
# time, since lru_cache keeps no exceptions.
_stage_timers = lru_cache(maxsize=1024, typed=True)(StageTimers)


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
        """The record of a decoded trace line, each value checked against its
        row of :data:`TRACE_FIELDS`; a :class:`ValidationError` names ``where``."""
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

_TRACE_ENCODER = json.JSONEncoder(sort_keys=True)
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


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line, stripped of
    JSON's own whitespace only; an unreadable file or bytes that are not
    UTF-8 raise :class:`ValidationError` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip(" \t\r\n")
                if line:
                    yield line_no, line
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _document(line: str, where: str) -> object:
    """``json.loads(line)``, or :class:`ValidationError` naming ``where``: json
    raises ValueError for an integer of more digits than int() converts, too."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: not JSON: {exc}") from exc


def read_json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """Yield ``("<path>:<line>", document)`` for each non-blank line; an
    unreadable file, bytes that are not UTF-8 and a line that is not JSON
    (as ``json.loads`` has it: only JSON's own whitespace is stripped) each
    raise :class:`ValidationError` naming the path."""
    prefix = f"{path}:"
    for line_no, line in _lines(path):
        where = f"{prefix}{line_no}"
        yield where, _document(line, where)


# The reader's side of the fragment cache.  A line is cut at its per-step
# values, and the four segments before them are its shape.  _SHAPES maps
# the shape of a line the writer built from fragments to the fields those
# fragments hold, as (category, d, tau, phi), k and (chi, alarm, recipients,
# t_total, fallback, text); it maps a shape found not to be the writer's to
# ().  A shape seen once waits in _SEEN and is judged on its second
# sighting, so a stream whose lines never repeat adds no shape and encodes
# nothing.  Each holds at most _SHAPES_SIZE entries and is cleared when full.
_SHAPES_SIZE = 1024
_SHAPES: dict[tuple[str, str, str, str], tuple] = {}
_SEEN: set[tuple[str, str, str, str]] = set()
_GAMMA_AT, _OBS_ID_AT, _RHO_AT, _TICK_AT = (f'"{key}": ' for key, _ in _PER_STEP_FIELDS)
_OBS_ID_AT += '"'  # obs_id's quotes belong to the segments around it
_GAMMA_LEN, _OBS_ID_LEN, _RHO_LEN, _TICK_LEN = map(len, (_GAMMA_AT, _OBS_ID_AT, _RHO_AT, _TICK_AT))
_NOT_WRITTEN = object()


@lru_cache(maxsize=1024)
def _score(text: str) -> float | None | object:
    """The value of a per-step score's text if :func:`write_trace` writes
    that value so: ``null``, or the ``repr`` of a finite float; otherwise
    ``_NOT_WRITTEN``.  A run's scores take few values, hence the cache."""
    if text == "null":
        return None
    try:
        value = float(text)
    except ValueError:
        return _NOT_WRITTEN
    return value if value - value == 0.0 and repr(value) == text else _NOT_WRITTEN


def _from_shape(fields: tuple, gamma: str, obs_id: str, rho: str, tick: str) -> TraceRecord | None:
    """The record of a line whose shape holds ``fields`` and whose per-step
    values have these texts, or None unless each text is what
    :func:`write_trace` writes for its value: see :func:`_score`; printable
    ASCII with no backslash or quote; an int in its canonical form."""
    g, r = _score(gamma), _score(rho)
    if g is _NOT_WRITTEN or r is _NOT_WRITTEN:
        return None
    try:
        t = int(tick)
    except ValueError:
        return None
    if str(t) == tick and obs_id.isascii() and obs_id.isprintable() and "\\" not in obs_id:
        labels, criticality, rest = fields
        return tuple.__new__(TraceRecord, (t, obs_id, *labels, r, criticality, g, *rest))
    return None


def _learn(shape: tuple, record: TraceRecord, *texts: str) -> None:
    """Judge a shape on its second sighting: the line of that shape that
    ``from_wire`` decoded to ``record``, with per-step value ``texts``."""
    (_, _, category, level, time_sensitivity, feasibility, _, criticality, _, character,
     alarm, recipients, t_total, fallback, text) = record
    fields = (
        (category, level, time_sensitivity, feasibility), criticality,
        (character, alarm, recipients, t_total, fallback, text),
    )
    # With its values written as the writer writes them, the line's fields
    # follow from its shape alone, so the verdict holds for the shape.
    if _from_shape(fields, *texts) is None:
        return
    _SEEN.discard(shape)
    head, after_gamma, after_id, after_rho, tail = _line_fragments(
        category, level, time_sensitivity, feasibility, criticality, character,
        alarm, recipients, t_total, fallback, text,
    )
    writers = shape == (head, f'{after_gamma}"', f'"{after_id}', after_rho) and tail == "}\n"
    if len(_SHAPES) >= _SHAPES_SIZE:
        _SHAPES.clear()
    _SHAPES[shape] = fields if writers else ()


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Parse a trace log written by :func:`write_trace`: each line gives the
    record, or the :class:`ValidationError`, that ``json.loads`` and
    :meth:`TraceRecord.from_wire` give.

    A line the writer built from fragments is recognised by its shape, the
    text around its tick, obs_id, rho and gamma, and decoded from the fields
    kept for that shape, with only those four values parsed.  A shape is
    kept (at most 1,024 of them) once ``from_wire`` has decoded a line of it
    twice and found it to be the writer's fragments for those fields.  Any
    other line, or one whose per-step values are not written exactly as the
    writer writes them, goes through ``json.loads`` and ``from_wire``.
    """
    records: list[TraceRecord] = []
    append, shapes, seen = records.append, _SHAPES, _SEEN
    prefix = f"{path}:"
    for line_no, line in _lines(path):
        fields = ()
        if line[-1] == "}":
            # A find that fails leaves some segment shorter than the marker
            # its kept counterpart ends in; so in a line of a kept shape
            # every marker was found, in order, and the segments and the
            # values between them spell the line.
            find = line.find
            a = find(_GAMMA_AT) + _GAMMA_LEN
            b = find(",", a)
            c = find(_OBS_ID_AT, b) + _OBS_ID_LEN
            d = find('"', c)
            e = find(_RHO_AT, d) + _RHO_LEN
            f = find(",", e)
            g = line.rfind(_TICK_AT, f) + _TICK_LEN
            shape = (line[:a], line[b:c], line[d:e], line[f:g])
            fields = shapes.get(shape)
            if fields:
                record = _from_shape(fields, line[a:b], line[c:d], line[e:f], line[g:-1])
                if record is not None:
                    append(record)
                    continue
        where = f"{prefix}{line_no}"
        record = TraceRecord.from_wire(_document(line, where), where)
        if fields is None:
            if shape in seen:
                _learn(shape, record, line[a:b], line[c:d], line[e:f], line[g:-1])
            else:
                if len(seen) >= _SHAPES_SIZE:
                    seen.clear()
                seen.add(shape)
        append(record)
    return records


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
            else _stage_timers(profile.t_camera, profile.t_heatmap, t_llm, profile.t_comm)
        )

        if assessment is None:
            # Explicit no-hazard: clear the alarm, nothing to say, no t_comm.
            self.alarm_latched = False
            if timers.t_comm:
                timers = _stage_timers(profile.t_camera, profile.t_heatmap, t_llm, 0)
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
