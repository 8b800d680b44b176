"""The decoders of the request, response, truth and fault-profile documents
are total: on a valid document mutated at any depth, each one returns or
raises its own error type, never anything else.  A scenario the decoder
accepts runs to a report.  So are the intakes where a user meets them: on a
scenario file, a trace or a remote reply with its bytes mutated, ``hazcom
run`` and ``hazcom verify`` end in an exit code and the reply reader in a
document or one of its two errors."""

import copy
import dataclasses
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazcom import (
    ConfigurationError,
    LocationBaselineBackend,
    ObjectBaselineBackend,
    ScriptedBackend,
    run_suite,
    write_trace,
)
from hazcom._http import parse_reply
from hazcom.cli import EXIT_CLEAN, EXIT_CONFIG, EXIT_VIOLATION, main
from hazcom.core import MAX_TICKS
from hazcom.perception import (
    BackendResponseError,
    BackendTransportError,
    FaultProfile,
    decode_assessment,
    decode_observation,
    encode_assessment,
    encode_observation,
)
from hazcom.scenarios import (
    builtin_suite,
    generate,
    scenario_file_text,
    scenario_from_dict,
    scenario_to_dict,
)

_SCENARIOS = builtin_suite() + generate(5, 4)
_SCENARIOS[-1] = dataclasses.replace(
    _SCENARIOS[-1], fault_profile=FaultProfile(added_delay=3, failure_rate=0.25, seed=7)
)
_OBSERVATIONS = [obs for scenario in _SCENARIOS for obs in scenario.observations]
_REQUESTS = [encode_observation(obs) for obs in _OBSERVATIONS]
_RESPONSES = [encode_assessment(ScriptedBackend().assess(obs)) for obs in _OBSERVATIONS]
_SCENARIO_DOCS = [scenario_to_dict(scenario) for scenario in _SCENARIOS]
_BACKENDS = {"scripted": ScriptedBackend(), "object": ObjectBaselineBackend(),
             "location": LocationBaselineBackend()}


def _containers(node):
    """``node`` and every object or list inside it, at any depth."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


# Every key the documents have, so that an added key is sometimes a known one.
_KNOWN_KEYS = sorted({
    key for doc in _REQUESTS + _RESPONSES + _SCENARIO_DOCS
    for node in _containers(doc) if isinstance(node, dict) for key in node
})
_LABELS = ["SharpObject", "Waste", "Low", "Medium", "High", "Immediate", "Soon", "Robot",
           "PoC", "Corridor", "Kitchen", "Sparse", "None", "knife", ""]
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
    | st.sampled_from(_LABELS)
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_KNOWN_KEYS) | st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, documents):
    """A copy of one of ``documents`` with one to three keys (or list items)
    replaced, deleted or added, anywhere in it."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "delete", "add"] if keys else ["add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_KNOWN_KEYS) | st.text(max_size=4))] = draw(_JSON_VALUES)
        elif action == "add":
            node.insert(draw(st.integers(0, len(node))), draw(_JSON_VALUES))
        elif action == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(_JSON_VALUES)
    return doc


# Tick counts on both sides of the largest one, far past a float included.
_TICKS = st.integers(0, MAX_TICKS) | st.integers(0, 10**400)


@st.composite
def _retimed(draw, documents):
    """A copy of one of ``documents`` with a fault delay and every timestamp
    drawn from ``_TICKS``."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    doc["fault_profile"] = dict(doc.get("fault_profile") or {}, added_delay=draw(_TICKS))
    for step in doc["steps"]:
        step["observation"]["timestamp"] = draw(_TICKS)
    return doc


class TestDecodersAreTotal:
    @settings(max_examples=300, deadline=None)
    @given(doc=_mutated(_REQUESTS))
    def test_request(self, doc):
        try:
            decode_observation(doc)
        except BackendResponseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutated(_RESPONSES))
    def test_response(self, doc):
        try:
            decode_assessment(doc)
        except BackendResponseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutated(_SCENARIO_DOCS))
    def test_scenario_truth_and_fault_profile(self, doc):
        try:
            scenario_from_dict(doc, "scenario 0")
        except ConfigurationError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutated(_SCENARIO_DOCS) | _retimed(_SCENARIO_DOCS))
    def test_an_accepted_scenario_runs_to_a_report(self, doc):
        # Accepted means runnable: no value the decoder lets through (a tick
        # count too large for a float, say) may stop the run or its report.
        try:
            scenario = scenario_from_dict(doc, "scenario 0")
        except ConfigurationError:
            return
        report = run_suite([scenario], _BACKENDS)
        json.dumps(report.to_json_dict(), allow_nan=False)
        assert report.to_text()

    def test_the_valid_documents_decode(self):
        assert [decode_observation(doc) for doc in _REQUESTS] == _OBSERVATIONS
        assert {"no_hazard": True} in _RESPONSES
        truths = [step["truth"] for doc in _SCENARIO_DOCS for step in doc["steps"]]
        assert None in truths and any(t is not None and "rho" in t for t in truths)
        for doc in _RESPONSES:
            assert encode_assessment(decode_assessment(doc)) == doc
        assert [scenario_from_dict(doc, "s") for doc in _SCENARIO_DOCS] == _SCENARIOS


# The bytes a user hands the CLI: the builtin scenario file, and the trace of
# the builtin suite under the three local backends, joined in one file.
_SCENARIO_FILE = scenario_file_text(builtin_suite()).encode("utf-8")
_TRACE_RECORDS = [
    record for result in run_suite(builtin_suite(), _BACKENDS).results.values()
    for run in result.runs.values() for record in run.trace
]
_URL = "http://127.0.0.1:9/assess"
_REPLY_HEADS = [
    b"HTTP/1.0 200 OK", b"HTTP/1.1 204 No Content", b"HTTP/1.0 503 Busy",
    b"HTTP/1.0 302 Found", b"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked", b"HTTP 200",
]
_REPLY_BODIES = [json.dumps(doc).encode("utf-8") for doc in _RESPONSES[:8]] + [
    b"", b"[]", b"null", b"\xff", b"[" * 100_000, b'{"rho": ' + b"9" * 5001 + b"}",
    '{"no_hazard": true}'.encode("utf-16"),
]


_INSERTED_CHARS = [b"{", b"}", b"[", b"]", b'"', b"\\"]


def _position(draw, data, anchor):
    """An index into ``data``: anywhere, or where a match of ``anchor``
    starts, as often as not."""
    anchors = [m.start() for m in re.finditer(anchor, data)]
    if anchors and draw(st.booleans()):
        return draw(st.sampled_from(anchors))
    return draw(st.integers(0, len(data)))


@st.composite
def _mutated_bytes(draw, data):
    """``data`` with one or two byte faults: cut short, a byte deleted or
    doubled, a run of up to 5,001 digits (often before a digit), a brace,
    bracket, quote or backslash, or a ``\\ud800`` escape (often just inside
    a string) inserted."""
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["cut", "delete", "double", "digits", "char", "surrogate"]))
        if kind == "cut":
            data = data[:draw(st.integers(0, max(len(data) - 1, 0)))]
        elif kind in ("delete", "double") and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + data[at:at + 1] * (kind == "double") + data[at:]
        elif kind == "digits":
            at = _position(draw, data, rb"\d")
            digits = draw(st.integers(1, 5001) | st.sampled_from([4300, 4301, 5001]))
            data = data[:at] + b"9" * digits + data[at:]
        elif kind == "char":
            at = _position(draw, data, rb"[\[\]{}\"\\]")
            data = data[:at] + draw(st.sampled_from(_INSERTED_CHARS)) + data[at:]
        elif kind == "surrogate":
            at = _position(draw, data, rb'(?<=")')
            data = data[:at] + b"\\ud800" + data[at:]
    return data


@st.composite
def _replies(draw):
    """Arbitrary bytes, or a reply of some status and body, the body mutated
    or not; with the end its head declares, another end, or none."""
    if draw(st.integers(0, 4)) == 0:
        reply = draw(st.binary(max_size=64))
    else:
        head, body = draw(st.sampled_from(_REPLY_HEADS)), draw(st.sampled_from(_REPLY_BODIES))
        if draw(st.booleans()):
            body = draw(_mutated_bytes(body))
        reply = head + b"\r\n\r\n" + body
    return reply, draw(st.sampled_from([None, len(reply)]) | st.integers(0, len(reply) + 16))


def _main(argv):
    """``cli.main``'s exit code, stdout and stderr, written as a terminal
    would: stdout as strict UTF-8, stderr with backslash escapes."""
    out = io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), "utf-8", "backslashreplace", write_through=True)
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue().decode("utf-8"), err.buffer.getvalue().decode("utf-8")


class TestIntakesAreTotal:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("intakes")
        write_trace(directory / "builtin.jsonl", _TRACE_RECORDS)
        return directory

    @settings(max_examples=200, deadline=None)
    @given(data=_mutated_bytes(_SCENARIO_FILE))
    def test_run_on_a_mutated_scenario_file_ends_in_an_exit_code(self, files, data):
        suite, report = files / "suite.json", files / "report.txt"
        suite.write_bytes(data)
        report.unlink(missing_ok=True)
        code, out, err = _main(["run", "--scenarios", str(suite), "--report", str(report)])
        assert out == ""
        if code == EXIT_CONFIG:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not report.exists()
        else:
            assert err == ""
            text = report.read_text(encoding="utf-8")
            # Exit 1 comes only with the violations listed in the report.
            assert text.endswith("\nviolations: none\n") == (code == EXIT_CLEAN)
            assert ("\nviolations:\n  " in text) == (code == EXIT_VIOLATION)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_verify_on_a_mutated_trace_ends_in_an_exit_code(self, files, data):
        trace = files / "trace.jsonl"
        trace.write_bytes(data.draw(_mutated_bytes((files / "builtin.jsonl").read_bytes())))
        code, out, err = _main(["verify", str(trace)])
        if code == EXIT_CONFIG:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
            *violations, summary = out.splitlines()
            assert re.fullmatch(rf"\d+ records checked, {len(violations)} violations", summary)
            # Exit 1 comes only with the violations printed.
            assert code == (EXIT_VIOLATION if violations else EXIT_CLEAN)

    def test_the_unmutated_files_are_clean(self, files):
        (files / "suite.json").write_bytes(_SCENARIO_FILE)
        assert _main(["run", "--scenarios", str(files / "suite.json"),
                      "--report", str(files / "report.txt")])[0] == EXIT_CLEAN
        assert _main(["verify", str(files / "builtin.jsonl")]) == (
            EXIT_CLEAN, f"{len(_TRACE_RECORDS)} records checked, 0 violations\n", "")

    @settings(max_examples=300, deadline=None)
    @given(reply_and_end=_replies())
    def test_a_reply_is_an_object_or_one_of_two_errors(self, reply_and_end):
        reply, end = reply_and_end
        try:
            document = parse_reply(reply, end, _URL)
        except (BackendTransportError, BackendResponseError) as exc:
            assert type(exc) in (BackendTransportError, BackendResponseError)
            assert _URL in str(exc)
        else:
            assert type(document) is dict
