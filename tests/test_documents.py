"""The decoders of the request, response, truth and fault-profile documents
are total: on a valid document mutated at any depth, each one returns or
raises its own error type, never anything else.  A scenario the decoder
accepts runs to a report."""

import copy
import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hazcom import (
    ConfigurationError,
    LocationBaselineBackend,
    ObjectBaselineBackend,
    ScriptedBackend,
    run_suite,
)
from hazcom.core import MAX_TICKS
from hazcom.perception import (
    BackendResponseError,
    FaultProfile,
    decode_assessment,
    decode_observation,
    encode_assessment,
    encode_observation,
)
from hazcom.scenarios import builtin_suite, generate, scenario_from_dict, scenario_to_dict

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
