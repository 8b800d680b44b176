"""The traced run: spans and counts at each layer boundary, from outside.

Nothing under ``src/`` knows about tracing.  ``instrument`` replaces the
module attributes through which the layers call each other (and the ones
``run.py`` calls) with wrappers that record a span per call, and restores
them on exit.  Spans stay in memory until the run ends; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from time import perf_counter_ns
from unittest import mock

import hazcom as hz
from hazcom.perception import http_transport

import workloads

NAME, START, END, PARENT, STEP = range(5)


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent, step id]`` and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step: str | None = None
        self.verdict = False
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.step])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn, tally=None):
        """``fn`` inside a span; ``tally(args, result)`` updates the counts."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if tally is not None:
                tally(args, result)
            return result

        return traced


class TracedBackend:
    """Wraps the backend the engine sees, fault injection included."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def assess(self, obs):
        tracer = self.tracer
        tracer.counts["perception.assess_calls"] += 1
        index = tracer.begin("perception.assess")
        try:
            verdict = self.inner.assess(obs)
        except hz.BackendError:
            tracer.counts["perception.errors"] += 1
            raise
        finally:
            tracer.end(index)
        tracer.verdict = verdict is not None
        return verdict


def _traced_transport(tracer: Tracer):
    def transport(endpoint: str, request: dict, timeout_ticks: int) -> dict:
        counts = tracer.counts
        counts["http.posts"] += 1
        index = tracer.begin("http.post")
        try:
            response = http_transport(endpoint, request, timeout_ticks)
        except hz.BackendError:
            counts["http.failures"] += 1
            raise
        finally:
            tracer.end(index)
        # The client and the stub both encode with json.dumps defaults.
        counts["http.bytes_sent"] += len(json.dumps(request).encode("utf-8"))
        counts["http.bytes_received"] += len(json.dumps(response).encode("utf-8"))
        return response

    return transport


@contextmanager
def instrument(tracer: Tracer, workload: workloads.Workload):
    """Trace every layer of one workload until the block exits."""
    counts = tracer.counts
    engine_mod, harness_mod = hz.engine, hz.harness
    original_step = engine_mod.Engine.step

    def step(engine, obs, backend, obs_id=None):
        tracer.step = obs_id
        tracer.verdict = False
        index = tracer.begin("engine.step")
        try:
            result = original_step(engine, obs, TracedBackend(backend, tracer), obs_id)
        finally:
            tracer.end(index)
        counts["engine.steps"] += 1
        if result.fallback_used:
            counts["engine.fallbacks"] += 1
            counts["perception.discarded"] += tracer.verdict
        return result

    def tally_dispatch(args, records) -> None:
        counts["dispatch.calls"] += 1
        counts["dispatch.deliveries"] += len(records)
        counts["dispatch.failures"] += sum(not r.success for r in records)

    def tally_verify(args, violations) -> None:
        counts["oracle.records"] += len(args[0])
        counts["oracle.violations"] += len(violations)

    def tally_write(args, result) -> None:
        counts["engine.trace_records_written"] += len(args[1])

    def tally_read(args, records) -> None:
        counts["engine.trace_records_read"] += len(records)
        counts["engine.trace_bytes"] += Path(args[0]).stat().st_size

    def tally_report(args, text) -> None:
        counts["harness.report_bytes"] += len(text.encode("utf-8"))

    def tally_assemble(args, output) -> None:
        counts["core.assemble_calls"] += 1

    verify = tracer.wrap("oracle.verify", hz.oracle_verify, tally_verify)
    targets = [
        (engine_mod.Engine, "step", step),
        (engine_mod, "assemble_output",
         tracer.wrap("core.assemble", engine_mod.assemble_output, tally_assemble)),
        (engine_mod, "fallback_output",
         tracer.wrap("engine.fallback", engine_mod.fallback_output)),
        (harness_mod, "dispatch", tracer.wrap("dispatch", harness_mod.dispatch, tally_dispatch)),
        (harness_mod, "oracle_verify", verify),
        (hz, "oracle_verify", verify),
        (harness_mod.SuiteReport, "to_json_dict",
         tracer.wrap("harness.to_json_dict", harness_mod.SuiteReport.to_json_dict)),
        (hz, "run_suite", tracer.wrap("harness.run_suite", hz.run_suite)),
        (hz, "write_trace", tracer.wrap("engine.write_trace", hz.write_trace, tally_write)),
        (hz, "read_trace", tracer.wrap("engine.read_trace", hz.read_trace, tally_read)),
        (workloads, "render_report",
         tracer.wrap("harness.report", workloads.render_report, tally_report)),
    ]
    for name in ("detection_accuracy", "message_alignment", "coordination_success",
                 "latency_compliance", "effectiveness", "objective_loss"):
        targets.append(
            (harness_mod, name, tracer.wrap(f"metrics.{name}", getattr(harness_mod, name)))
        )
    backends = {
        name: hz.RemoteBackend(b.endpoint, b.timeout_ticks, _traced_transport(tracer))
        if isinstance(b, hz.RemoteBackend) else b
        for name, b in workload.backends.items()
    }
    with ExitStack() as stack:
        for owner, attribute, replacement in targets:
            stack.enter_context(mock.patch.object(owner, attribute, replacement))
        stack.enter_context(mock.patch.object(workload, "backends", backends))
        yield


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer numbers of ``passes`` traced cycles through the inputs.

    Counts and totals are per pass over all the inputs.
    """
    spans = tracer.spans
    children = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    took: dict[str, list[int]] = defaultdict(list)
    own: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        took[span[NAME]].append(duration)
        own[span[NAME]].append(duration - children[index])

    counts = tracer.counts

    def per_pass(name: str) -> float:
        return counts[name] / passes

    def us(values: list, q: float) -> float:
        return workloads.percentile(values, q) / 1e3

    def us_per(span_name: str, count_name: str) -> float:
        return sum(took[span_name]) / 1e3 / max(counts[count_name], 1)

    def per_pass_s(span_name: str) -> float:
        return sum(took[span_name]) / 1e9 / passes

    metric_spans = [d for name, ds in took.items() if name.startswith("metrics.") for d in ds]
    return {
        "perception.assess_calls": (per_pass("perception.assess_calls"), "count"),
        "perception.assess_us_p50": (us(took["perception.assess"], 0.5), "us"),
        "perception.assess_us_p99": (us(took["perception.assess"], 0.99), "us"),
        "perception.self_share": (
            sum(own["perception.assess"]) / max(sum(took["harness.run_suite"]), 1), "ratio"),
        "perception.errors": (per_pass("perception.errors"), "count"),
        "perception.discarded_ratio": (
            counts["perception.discarded"] / max(counts["perception.assess_calls"], 1), "ratio"),
        "http.posts": (per_pass("http.posts"), "count"),
        "http.post_us_p50": (us(took["http.post"], 0.5), "us"),
        "http.post_us_p99": (us(took["http.post"], 0.99), "us"),
        "http.bytes_sent": (per_pass("http.bytes_sent"), "bytes"),
        "http.bytes_received": (per_pass("http.bytes_received"), "bytes"),
        "http.failures": (per_pass("http.failures"), "count"),
        "core.assemble_calls": (per_pass("core.assemble_calls"), "count"),
        "core.assemble_us_p50": (us(took["core.assemble"], 0.5), "us"),
        "engine.steps": (per_pass("engine.steps"), "count"),
        "engine.step_us_p50": (us(took["engine.step"], 0.5), "us"),
        "engine.step_us_p99": (us(took["engine.step"], 0.99), "us"),
        "engine.self_us_p50": (us(own["engine.step"], 0.5), "us"),
        "engine.fallbacks": (per_pass("engine.fallbacks"), "count"),
        "engine.trace_write_us_per_record": (
            us_per("engine.write_trace", "engine.trace_records_written"), "us"),
        "engine.trace_read_us_per_record": (
            us_per("engine.read_trace", "engine.trace_records_read"), "us"),
        "engine.trace_bytes": (per_pass("engine.trace_bytes"), "bytes"),
        "dispatch.calls": (per_pass("dispatch.calls"), "count"),
        "dispatch.deliveries": (per_pass("dispatch.deliveries"), "count"),
        "dispatch.us_p50": (us(took["dispatch"], 0.5), "us"),
        "dispatch.failures": (per_pass("dispatch.failures"), "count"),
        "metrics.score_s": (sum(metric_spans) / 1e9 / passes, "s"),
        "oracle.records": (per_pass("oracle.records"), "count"),
        "oracle.us_per_record": (us_per("oracle.verify", "oracle.records"), "us"),
        "oracle.violations": (per_pass("oracle.violations"), "count"),
        "harness.run_suite_s": (per_pass_s("harness.run_suite"), "s"),
        "harness.report_s": (per_pass_s("harness.report"), "s"),
        "harness.report_bytes": (per_pass("harness.report_bytes"), "bytes"),
    }
