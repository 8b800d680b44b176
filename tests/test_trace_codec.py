"""The trace codec: the writer's bytes are the encoder's; ``from_wire``, the
one decoder of a line, gives a record or a ValidationError for any document;
``read_trace``'s shape reader gives what ``json.loads`` and ``from_wire``
give on every file; and the writer, the reader and the oracle follow the one
field table."""

import json
import sys
from unittest import mock

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
    LocationBaselineBackend,
    ObjectBaselineBackend,
    ScriptedBackend,
    TimeSensitivity,
    TraceRecord,
    ValidationError,
    builtin_suite,
    oracle_verify,
    read_trace,
    run_suite,
    write_trace,
)
from hazcom import engine
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


class TestFromWire:
    """``TraceRecord.from_wire``, the one decoder of a trace line."""

    @settings(max_examples=200, deadline=None)
    @given(record=_WELL_TYPED, value=_JSON_VALUES | st.just(_DELETE))
    def test_any_field_value_gives_a_record_or_a_validation_error(self, record, value):
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
            try:
                decoded = TraceRecord.from_wire(doc, where)
            except ValidationError as exc:
                assert str(exc).startswith(f"{where}: "), key
            else:
                # What it accepts, it writes and reads back as itself.
                again = TraceRecord.from_wire(json.loads(json.dumps(decoded.to_wire())))
                assert repr(again) == repr(decoded), key

    @settings(max_examples=200, deadline=None)
    @given(record=_WELL_TYPED)
    def test_round_trip(self, record):
        # repr tells apart what == does not: 1 from 1.0, -0.0 from 0.0, NaN.
        doc = json.loads(json.dumps(record.to_wire()))
        assert repr(TraceRecord.from_wire(doc)) == repr(record)


def _read_checked(path):
    """``read_trace`` as ``json.loads`` and ``TraceRecord.from_wire`` alone
    have it, on each stripped, non-blank line."""
    records = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        line = line.strip(" \t\r\n")
        if not line:
            continue
        where = f"{path}:{line_no}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ValidationError(f"{where}: not JSON: {exc}") from exc
        records.append(TraceRecord.from_wire(doc, where))
    return records


def _agree(path):
    """Assert that ``read_trace`` gives the checked path's outcome on the
    file; return how many of its lines ``read_trace`` decoded as JSON."""
    with mock.patch.object(engine, "_document", wraps=engine._document) as checked:
        outcome = _outcome(read_trace, path)
    assert outcome == _outcome(_read_checked, path)
    return checked.call_count


def _write_with_base(path, base, last):
    """``base`` written three times, then the line ``last``; the file is
    read once, so that ``base``'s shape is known."""
    path.unlink(missing_ok=True)
    for _ in range(3):
        write_trace(path, [base])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(last + "\n")
    _outcome(read_trace, path)


# The text the cut looks for, inside a string it must not cut.
_MARKERS = [f'"{key}": ' for key, _ in _PER_STEP_FIELDS] + ['"obs_id": "', "}", ", "]
_MARKED_TEXT = st.lists(st.sampled_from(_MARKERS) | _TEXT, max_size=3).map("".join)
_PLAIN_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\')
)
_FINITE = st.none() | st.floats(allow_nan=False, allow_infinity=False)
# Records whose per-step values the writer writes in the form the reader
# recognises, so that their lines can take the fast path.
_PLAIN_STEPS = st.builds(
    lambda record, tick, obs_id, rho, gamma: record._replace(
        tick=tick, obs_id=obs_id, risk=rho, tone=gamma
    ),
    _WELL_TYPED, st.integers(-(10**20), 10**20), _PLAIN_TEXT, _FINITE, _FINITE,
)
# Characters an edit puts into a line: JSON's punctuation, digits, letters of
# its literals, an escape, and any other character but a line break.
_EDIT_CHARS = st.sampled_from(list('"\\,:{}[] 0123456789.-+eEnulltrfas/\x00\xe9')) | st.characters(
    blacklist_characters="\n\r"
)
# A per-step value spelt otherwise than the writer writes it: as JSON allows,
# or as Python's float() and int() accept but JSON does not.
_NUMBERS = ["1e0", "1.50", "-0", "007", "NaN", "Infinity", "-Infinity", "1E0", "0.5e1",
            "inf", "nan", "+1.5", "1_0.5", "٧.5", "1.", ".5", "1e400"]
_RESPELT = {
    "gamma": _NUMBERS,
    "rho": _NUMBERS,
    "tick": ["1e0", "1.50", "-0", "007", "NaN", "Infinity", "1E2", "0.0", "+7", "7_0",
             "٧", "1" * 5000],
    "obs_id": ['"a\\"b"', '"a\\\\b"', '"\xe9"', '"\\u00e9"', '"\\/"', '"a\\tb"', '"\x7f"',
               '"\x00"', '"\t"'],
}


class TestReaderAgreesWithCheckedPath:
    """``read_trace`` decodes a line of a shape it has learnt without JSON;
    whichever path a line takes, the outcome is that of ``json.loads`` and
    ``from_wire`` (the checked path).  A line under test follows three
    copies of a written line, so that it meets a known shape."""

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(_RECORDS | _PLAIN_STEPS, min_size=1, max_size=4))
    def test_lines_as_written(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        path.unlink(missing_ok=True)
        for _ in range(3):
            write_trace(path, records)
        _agree(path)

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_PLAIN_STEPS, min_size=1, max_size=4))
    def test_third_sighting_takes_the_fast_path(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        path.unlink(missing_ok=True)
        for _ in range(3):
            write_trace(path, records)
        assert _agree(path) <= 2 * len(records)

    @settings(max_examples=400, deadline=None)
    @given(
        base=_PLAIN_STEPS,
        edit=st.sampled_from(["insert", "delete", "replace"]),
        char=_EDIT_CHARS,
        data=st.data(),
    )
    def test_one_character_edited(self, tmp_path_factory, base, edit, char, data):
        line = json.dumps(base.to_wire(), sort_keys=True)
        # Anywhere, or at an edge of a per-step value or of the line.
        edges = [0, len(line) - 2, len(line) - 1]
        for key, _ in _PER_STEP_FIELDS:
            at = line.index(f'"{key}": ') + len(key) + 4
            end = min(i for i in (line.find(",", at), line.find("}", at)) if i >= 0)
            edges += [at - 1, at, at + 1, end - 1, end]
        i = data.draw(st.integers(0, len(line) - 1) | st.sampled_from(edges))
        edited = {
            "insert": line[:i] + char + line[i:],
            "delete": line[:i] + line[i + 1:],
            "replace": line[:i] + char + line[i + 1:],
        }[edit]
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        _write_with_base(path, base, edited)
        assert _agree(path) <= 1

    @pytest.mark.parametrize("key, spelling", [
        pytest.param(key, spelling, id=f"{key}-{i}")
        for key, spellings in sorted(_RESPELT.items()) for i, spelling in enumerate(spellings)
    ])
    @settings(max_examples=10, deadline=None)
    @given(base=_PLAIN_STEPS)
    def test_per_step_value_spelt_another_way(self, tmp_path_factory, key, spelling, base):
        wire = base.to_wire()
        wire[key] = "\x00"
        # Only the key itself is written with bare quotes.
        respelt = json.dumps(wire, sort_keys=True).replace(
            f'"{key}": "\\u0000"', f'"{key}": {spelling}'
        )
        assert spelling in respelt
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        _write_with_base(path, base, respelt)
        # The respelt line is not the writer's, so JSON reads it.
        assert _agree(path) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        base=_PLAIN_STEPS, key=st.sampled_from([key for key, _ in _PER_STEP_FIELDS]),
        firsts=st.lists(_PLAIN_STEPS, min_size=4, max_size=4),
    )
    def test_per_step_key_written_twice(self, tmp_path_factory, base, key, firsts):
        # json.loads keeps the last of two equal keys; a line whose first
        # copy of a per-step key varies is valid JSON, but not the writer's
        # line, and the first copy is not the value it decodes to.
        field = {"tick": "tick", "obs_id": "obs_id", "rho": "risk", "gamma": "tone"}[key]
        wire = base.to_wire()
        line = json.dumps(wire, sort_keys=True)
        real = f'"{key}": {json.dumps(wire[key])}'
        assert line.count(real) == 1
        lines = [
            line.replace(real, f'"{key}": {json.dumps(getattr(first, field))}, {real}')
            for first in firsts
        ]
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        _agree(path)

    @settings(max_examples=150, deadline=None)
    @given(
        base=_PLAIN_STEPS, text=_MARKED_TEXT, obs_id=_MARKED_TEXT,
        steps=st.lists(st.tuples(st.integers(0, 10**6), _SCORES, _SCORES), max_size=3),
    )
    def test_cut_markers_inside_strings(self, tmp_path_factory, base, text, obs_id, steps):
        record = base._replace(text=text, obs_id=obs_id)
        records = [record] * 3 + [
            record._replace(tick=tick, risk=rho, tone=gamma) for tick, rho, gamma in steps
        ]
        path = tmp_path_factory.getbasetemp() / "agree.jsonl"
        path.unlink(missing_ok=True)
        write_trace(path, records)
        _agree(path)

    def test_a_line_not_as_written_does_not_judge_its_shape(
        self, tmp_path, s1_obs, scripted, monkeypatch
    ):
        # The second line has the first's shape, but its tick is followed by
        # a second "text"; it decodes, to other fields.  Judged on it, the
        # shape would be refused and the lines after it read as JSON.
        monkeypatch.setattr(engine, "_SHAPES", {})
        monkeypatch.setattr(engine, "_SEEN", set())
        record = Engine().step(s1_obs, scripted).record
        line = json.dumps(record.to_wire(), sort_keys=True)
        odd = line[:-1] + ', "text": "other"}'
        path = tmp_path / "trace.jsonl"
        path.write_text(f"{line}\n{odd}\n{line}\n{line}\n", encoding="utf-8")
        assert _agree(path) == 3
        assert read_trace(path)[1].text == "other"

    def test_shape_table_stays_bounded_and_unpoisoned(self, tmp_path, s1_obs, scripted):
        # 30,000 lines whose shapes never repeat are read by the checked
        # path and leave the tables within their bound; a builtin-suite trace
        # read afterwards still decodes every line from its shape.
        record = Engine().step(s1_obs, scripted).record
        unique = [
            record._replace(tick=i, obs_id=f"step-{i}", risk=i / 7, text=f"message {i}")
            for i in range(30_000)
        ]
        path = tmp_path / "unique.jsonl"
        write_trace(path, unique)
        assert read_trace(path) == unique
        assert len(engine._SHAPES) <= engine._SHAPES_SIZE == 1024
        assert len(engine._SEEN) <= engine._SHAPES_SIZE

        report = run_suite(builtin_suite(), {
            "scripted": ScriptedBackend(),
            "object-baseline": ObjectBaselineBackend(),
            "location-baseline": LocationBaselineBackend(),
        })
        records = [
            r for name in report.backend_names
            for run in report.results[name].runs.values() for r in run.trace
        ]
        path = tmp_path / "builtin.jsonl"
        write_trace(path, records)
        for _ in range(2):
            assert read_trace(path) == records
        with mock.patch.object(engine, "_document", side_effect=AssertionError):
            assert read_trace(path) == records
        assert len(engine._SHAPES) <= engine._SHAPES_SIZE


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

    def test_integer_longer_than_python_reads_is_not_json(self, tmp_path, s1_obs, scripted):
        # json.loads raises a bare ValueError past int()'s digit limit.
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python converts integers of any length")
        record = Engine().step(s1_obs, scripted).record
        line = json.dumps(record.to_wire(), sort_keys=True).replace(
            '"tick": 0', f'"tick": {"1" * 5000}'
        )
        path = tmp_path / "trace.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        for read in (read_trace, lambda p: list(read_json_lines(p))):
            with pytest.raises(ValidationError, match=f"^{path}:1: not JSON: Exceeds the limit"):
                read(path)

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
