"""The trace codec: the writer's bytes are the encoder's, the decoder's fast
path agrees with its checked path on every document, and the writer, the
reader and the oracle follow the one field table."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazcom import (
    Channel,
    Character,
    Criticality,
    Engine,
    Feasibility,
    HazardCategory,
    TimeSensitivity,
    TraceRecord,
    ValidationError,
    oracle_verify,
    read_trace,
    write_trace,
)
from hazcom.engine import _PER_STEP_FIELDS, TRACE_FIELDS, _line_fragments, read_json_lines


def _labels(enum_cls):
    return st.none() | st.sampled_from(list(enum_cls))


_SCORES = (
    st.none()
    | st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf")])
    | st.floats(allow_nan=True, allow_infinity=True)
)
# Strings that need escaping: quotes, backslashes, control and non-ASCII characters.
_TEXT = st.text(alphabet=st.sampled_from('ab"\\\x00\x1f\x7f\xe9 \U0001f600\u2028')) | st.text()
_CHANNEL_LISTS = st.lists(st.sampled_from(list(Channel)), max_size=3)

# Records of the types the engine writes.
_WELL_TYPED = st.builds(
    TraceRecord,
    tick=st.integers(-(10**20), 10**20),
    obs_id=_TEXT,
    category=_labels(HazardCategory),
    level=_labels(Criticality),
    time_sensitivity=_labels(TimeSensitivity),
    feasibility=_labels(Feasibility),
    risk=_SCORES,
    criticality=_labels(Criticality),
    tone=_SCORES,
    character=_labels(Character),
    alarm=st.booleans(),
    recipients=_CHANNEL_LISTS.map(tuple),
    t_total=st.integers(0, 10**20),
    fallback=st.booleans(),
    text=st.none() | _TEXT,
)
# One field of another type: a bool tick, integer or bool scores, an int
# alarm, an integer-valued float or bool t_total, a list of recipients.
_ODD_FIELDS = st.one_of(
    st.tuples(st.just("tick"), st.booleans()),
    st.tuples(st.just("risk"), st.integers(-(10**20), 10**20) | st.booleans()),
    st.tuples(st.just("tone"), st.integers(-(10**20), 10**20) | st.booleans()),
    st.tuples(st.just("alarm"), st.sampled_from([0, 1])),
    st.tuples(st.just("recipients"), _CHANNEL_LISTS),
    st.tuples(st.just("t_total"), st.booleans() | st.sampled_from([1.0, -0.0, 120.0])),
    st.tuples(st.just("fallback"), st.sampled_from([0, 1])),
    st.tuples(st.just("text"), st.integers() | st.booleans() | st.floats()),
)
_RECORDS = _WELL_TYPED | st.builds(
    lambda record, odd: record._replace(**{odd[0]: odd[1]}), _WELL_TYPED, _ODD_FIELDS
)


def _encoded(records):
    return "".join(json.dumps(r.to_wire(), sort_keys=True) + "\n" for r in records)


class TestWriterExactness:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_RECORDS, min_size=1, max_size=4))
    def test_every_line_is_the_encoders(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "codec.jsonl"
        path.unlink(missing_ok=True)
        write_trace(path, records)
        assert path.read_text(encoding="utf-8") == _encoded(records)

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(_RECORDS, min_size=1, max_size=3),
        steps=st.lists(
            st.tuples(st.integers(0, 10**6), _TEXT, _SCORES, _SCORES), min_size=1, max_size=8
        ),
    )
    def test_lines_sharing_cached_fragments(self, tmp_path_factory, keys, steps):
        # Records that differ only in tick, obs_id, rho and gamma reuse one
        # entry of the fragment cache; each line must still be exact.
        records = [
            keys[i % len(keys)]._replace(tick=tick, obs_id=obs_id, risk=rho, tone=gamma)
            for i, (tick, obs_id, rho, gamma) in enumerate(steps)
        ]
        path = tmp_path_factory.getbasetemp() / "codec.jsonl"
        path.unlink(missing_ok=True)
        write_trace(path, records)
        assert path.read_text(encoding="utf-8") == _encoded(records)

    def test_cache_stays_bounded_past_its_size(self, tmp_path, s1_obs, scripted):
        record = Engine().step(s1_obs, scripted).record
        records = [
            record._replace(tick=i, obs_id=f"step-{i}", risk=i / 7, text=f"message {i}")
            for i in range(1500)
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        info = _line_fragments.cache_info()
        assert info.maxsize == 1024
        assert info.currsize == 1024
        assert path.read_text(encoding="utf-8") == _encoded(records)
        assert read_trace(path) == records

    @pytest.mark.parametrize("field, first, second", [
        ("alarm", True, 1), ("alarm", False, 0), ("fallback", True, 1),
        ("t_total", 1, True), ("t_total", 0, False), ("t_total", 120, 120.0),
        ("t_total", 0, -0.0), ("text", 1, True), ("text", 1, 1.0),
        ("recipients", (Channel.NEARBY,), [Channel.NEARBY]),
    ])
    def test_equal_values_of_other_types_get_their_own_line(
        self, tmp_path, s1_obs, scripted, field, first, second
    ):
        # 1 == True == 1.0 and 0.0 == -0.0, but JSON writes each its own way,
        # so a cached line for one must not serve the other.
        record = Engine().step(s1_obs, scripted).record
        records = [record._replace(**{field: first}), record._replace(**{field: second})]
        for order in (records, records[::-1]):
            path = tmp_path / "trace.jsonl"
            path.unlink(missing_ok=True)
            write_trace(path, order)
            assert path.read_text(encoding="utf-8") == _encoded(order)


_ALL_LABELS = [m.value for e in (HazardCategory, Criticality, TimeSensitivity,
                                 Feasibility, Character, Channel) for m in e]
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
    | st.sampled_from(_ALL_LABELS)
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
) | st.sampled_from([{}, [], "", 0, 1, 1.0, -0.0, True, False, 10**400, ["nearby"],
                     {"nearby": 1}, "nearby"])
_DELETE = object()
_WIRE_KEYS = ["alarm", "category", "chi", "d", "fallback", "gamma", "k", "obs_id", "phi",
              "recipients", "rho", "t_total", "tau", "text", "tick"]


def _outcome(decode, doc):
    try:
        record = decode(doc)
    except ValidationError as exc:
        return "error", str(exc)
    # repr tells apart what == does not: 1 from 1.0 and True, -0.0 from 0.0, NaN.
    return "record", repr(record)


class TestDecoderAgreement:
    @settings(max_examples=200, deadline=None)
    @given(record=_WELL_TYPED, value=_JSON_VALUES | st.just(_DELETE))
    def test_fast_path_matches_checked_path(self, record, value):
        # A document as read_trace sees it, through JSON and back, with one
        # field set to the value or removed; every field in turn.
        wire = json.loads(json.dumps(record.to_wire()))
        where = "trace.jsonl:7"
        for key in _WIRE_KEYS:
            doc = dict(wire)
            if value is _DELETE:
                del doc[key]
            else:
                doc[key] = value
            assert _outcome(lambda d: TraceRecord.from_wire(d, where), doc) == _outcome(
                lambda d: TraceRecord._from_wire_checked(d, where), doc
            ), key

    def test_a_written_record_takes_the_fast_path(self, s1_obs, scripted):
        record = Engine().step(s1_obs, scripted).record
        doc = json.loads(json.dumps(record.to_wire()))
        assert TraceRecord.from_wire(doc) == record == TraceRecord._from_wire_checked(
            doc, "record"
        )


class TestStrictWhitespace:
    @pytest.mark.parametrize("char", ["\x0b", "\x1c", "\x85", "\u2028", "\u3000"],
                             ids=["VT", "FS", "NEL", "LS", "ideographic-space"])
    @pytest.mark.parametrize("where", ["end", "start"])
    def test_non_json_whitespace_is_not_json(self, tmp_path, s1_obs, scripted, char, where):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [Engine().step(s1_obs, scripted).record])
        line = path.read_text(encoding="utf-8").rstrip("\n")
        line = line + char if where == "end" else char + line
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            read_trace(path)
        assert str(excinfo.value).startswith(f"{path}:1: not JSON: ")

    def test_json_whitespace_is_stripped(self, tmp_path, s1_obs, scripted):
        record = Engine().step(s1_obs, scripted).record
        path = tmp_path / "trace.jsonl"
        write_trace(path, [record])
        line = path.read_text(encoding="utf-8").rstrip("\n")
        path.write_text(f" \t{line}\t \r\n\n \t\n", encoding="utf-8")
        assert read_trace(path) == [record]


_TABLE_KEYS = [field.key for field in TRACE_FIELDS]


def _verdicts(path):
    """Whether ``read_trace`` and ``oracle_verify`` (as ``hazcom verify``
    reads the file) each accept the trace at ``path``; a violation is no
    rejection, only a raised error is."""
    accepted = []
    for decode in (read_trace, lambda p: oracle_verify([doc for _, doc in read_json_lines(p)])):
        try:
            decode(path)
        except ValidationError:
            accepted.append(False)
        else:
            accepted.append(True)
    return accepted


class TestOneFieldTable:
    @pytest.mark.parametrize("dropped", [
        *[(key,) for key in _TABLE_KEYS], ("d", "tau", "phi"),
    ], ids=lambda keys: "+".join(keys))
    @pytest.mark.parametrize("hazard", [True, False], ids=["hazard", "no-hazard"])
    def test_reader_and_oracle_accept_the_same_key_sets(
        self, tmp_path, s1_obs, empty_obs, scripted, hazard, dropped
    ):
        record = Engine().step(s1_obs if hazard else empty_obs, scripted).record
        doc = {k: v for k, v in record.to_wire().items() if k not in dropped}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        required = any(f.required for f in TRACE_FIELDS if f.key in dropped)
        assert _verdicts(path) == [not required, not required]

    def test_only_category_and_text_are_optional(self):
        assert [f.key for f in TRACE_FIELDS if not f.required] == ["category", "text"]

    def test_to_wire_emits_the_table_keys_in_table_order(self, s1_obs, empty_obs, scripted):
        engine = Engine()
        for obs in (s1_obs, empty_obs):
            assert list(engine.step(obs, scripted).record.to_wire()) == _TABLE_KEYS

    def test_per_step_fields_are_table_keys_in_sorted_order(self):
        keys = [key for key, _ in _PER_STEP_FIELDS]
        assert set(keys) <= set(_TABLE_KEYS)
        assert keys == sorted(keys)
