"""The timed flow, its checks, and what a pass says about the program.

Each pass is the user flow ``hazcom run --format structured --trace DIR``
followed by ``hazcom verify`` on the traces, made through the library calls
those commands make.  The traces are written one file per backend rather
than one per scenario; the records and the calls are the same.

A run makes one untimed reference pass over all of the workload's
scenarios, then times the same flow on batches of ``BATCH_SCENARIOS``
scenarios, cycling through the inputs, with a calibration slice
(``calibrate.py``) timed just before each batch.  ``run_suite`` runs each
scenario on its own, so every batch must give exactly the reference pass's
records for its scenarios.
"""

from __future__ import annotations

import itertools
import sys
import time
import traceback
from pathlib import Path

import hazcom as hz

import calibrate
import workloads

# 2,200 scenarios make 50 batches of about 20-120 ms each: short enough that
# the host's speed rarely changes between a slice and the batch after it.
BATCH_SCENARIOS = 44


def count_steps(scenarios, backends) -> int:
    return sum(len(s.observations) for s in scenarios) * len(backends)


def run_pass(scenarios, backends, workdir: Path):
    """The user flow over ``scenarios``; returns its wall time and its outputs."""
    start = time.perf_counter()
    report = hz.run_suite(scenarios, backends)
    text = workloads.render_report(report)
    (workdir / "report.json").write_text(text, encoding="utf-8")
    readback = {}
    for name in report.backend_names:
        records = [r for run in report.results[name].runs.values() for r in run.trace]
        path = workdir / f"{name}.jsonl"
        path.write_text("", encoding="utf-8")
        hz.write_trace(path, records)
        back = hz.read_trace(path)
        readback[name] = (records, back, hz.oracle_verify([r.to_wire() for r in back]))
    return time.perf_counter() - start, report, text, readback


class Checker:
    """Counts the failed steps of the reference pass and of each batch.

    A step fails if it breaks an oracle rule (in ``run_suite`` or on the
    traces read back), if a delivery failed, if it does not survive the
    trace round trip, or if it fell back on a workload with no injected
    fault.  The reference pass fails as a whole if its report digest differs
    from the stored reference; a batch fails as a whole if its records
    differ from the reference pass's or its report digest from the one the
    same batch gave before.  A pass that raised fails as a whole too.
    """

    def __init__(self, w, reference: str | None) -> None:
        self.w = w
        self.reference = reference
        self.steps = count_steps(w.scenarios, w.backends)
        # backend -> scenario id -> trace records of the reference pass
        self.expected: dict[str, dict[str, list]] = {}
        self.batch_digests: dict[int, str] = {}

    def check_reference(self, report, text: str, readback: dict) -> int:
        self.expected = {
            name: {sid: run.trace for sid, run in report.results[name].runs.items()}
            for name in report.backend_names
        }
        digest = workloads.sha256(text)
        if self.reference is not None and digest != self.reference:
            print(f"report digest {digest} != reference {self.reference}", file=sys.stderr)
            return self.steps
        return self._failed_steps(report, readback)

    def check_batch(self, index: int, steps: int, report, text: str, readback: dict) -> int:
        digest = workloads.sha256(text)
        if self.batch_digests.setdefault(index, digest) != digest:
            print(f"batch {index} gave report digest {digest}, earlier "
                  f"{self.batch_digests[index]}", file=sys.stderr)
            return steps
        for name in report.backend_names:
            expected = self.expected.get(name, {})
            for sid, run in report.results[name].runs.items():
                if run.trace != expected.get(sid):
                    print(f"batch {index}: {name} records of {sid} differ from the "
                          "reference pass", file=sys.stderr)
                    return steps
        return self._failed_steps(report, readback)

    def _failed_steps(self, report, readback: dict) -> int:
        failed: set[tuple[str, int]] = set()
        for name in report.backend_names:
            result = report.results[name]
            offset = {}
            index = 0
            for scenario_id, run in result.runs.items():
                offset[scenario_id] = index
                for record, group in zip(run.trace, run.deliveries):
                    if (record.fallback and not self.w.faulted) or not all(
                        d.success for d in group
                    ):
                        failed.add((name, index))
                    index += 1
            failed.update((name, offset[s] + v.record_index) for s, v in result.violations)
            records, back, violations = readback[name]
            failed.update((name, v.record_index) for v in violations)
            failed.update(
                (name, i)
                for i, (a, b) in enumerate(itertools.zip_longest(records, back))
                if a != b
            )
        return len(failed)


def describe(w, report) -> dict:
    """Deterministic behaviour of one pass and the input properties it depends on."""
    records = [
        r for name in report.backend_names
        for run in report.results[name].runs.values() for r in run.trace
    ]
    latencies = [hz.clock.ticks_to_seconds(r.t_total) for r in records]
    outputs = [r for r in records if r.criticality is not None]
    observations = {
        f"{s.scenario_id}:{i}": (obs, s.fault_profile)
        for s in w.scenarios for i, obs in enumerate(s.observations)
    }
    assembled = [r for r in outputs if not r.fallback]
    keys = {(r.category, r.risk, observations[r.obs_id][0].env.location_type) for r in assembled}
    table = hz.builtin_rule_table()
    scanned = [
        table.rules.index(table.match(e, obs.env)) + 1
        for obs, _ in observations.values() for e in obs.salient_entities
    ]
    truths = [t for s in w.scenarios for t in s.ground_truth]
    faulted = [
        p is not None and (p.added_delay > 0 or p.failure_rate > 0)
        for _, p in observations.values()
    ]
    return {
        "sim_latency_p50_s": (workloads.percentile(latencies, 0.5), "sim_s"),
        "sim_latency_p99_s": (workloads.percentile(latencies, 0.99), "sim_s"),
        "sim_latency_samples": (len(latencies), "count"),
        "fallback_rate": (sum(r.fallback for r in outputs) / max(len(outputs), 1), "ratio"),
        "effectiveness": (report.results[w.context_backend].effectiveness, "ratio"),
        "perception.rules_scanned_per_entity": (sum(scanned) / max(len(scanned), 1), "count"),
        "core.assemble_distinct_ratio": (len(keys) / max(len(assembled), 1), "ratio"),
        "inputs.hazard_share": (sum(t is not None for t in truths) / len(truths), "ratio"),
        "inputs.fault_share": (sum(faulted) / len(faulted), "ratio"),
    }


def reference_pass(w, checker: Checker, workdir: Path, tally: dict) -> dict:
    """The untimed pass over all the scenarios; returns the behaviour it shows."""
    tally["attempted"] += checker.steps
    try:
        _, report, text, readback = run_pass(w.scenarios, w.backends, workdir)
    except Exception:  # the pass boundary: a raised pass fails, the run goes on
        traceback.print_exc()
        tally["failed"] += checker.steps
        return {}
    tally["failed"] += checker.check_reference(report, text, readback)
    return describe(w, report)


def measure(w, checker: Checker, workdir: Path, seconds: float, tally: dict):
    """Time batch after batch until ``seconds`` have gone and a cycle has ended.

    Returns ``(steps, seconds, slice seconds)`` for each clean batch and the
    number of whole cycles through the inputs.
    """
    batches = [
        w.scenarios[i:i + BATCH_SCENARIOS] for i in range(0, len(w.scenarios), BATCH_SCENARIOS)
    ]
    samples = []
    cycles = 0
    deadline = time.perf_counter() + seconds
    while True:
        for index, batch in enumerate(batches):
            steps = count_steps(batch, w.backends)
            tally["attempted"] += steps
            slice_s = calibrate.slice_seconds()
            try:
                elapsed, report, text, readback = run_pass(batch, w.backends, workdir)
            except Exception:  # the pass boundary: a raised pass fails, the run goes on
                traceback.print_exc()
                tally["failed"] += steps
                continue
            failed = checker.check_batch(index, steps, report, text, readback)
            tally["failed"] += failed
            if not failed:
                samples.append((steps, elapsed, slice_s))
        cycles += 1
        if time.perf_counter() >= deadline:
            return samples, cycles
