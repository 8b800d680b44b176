"""Suite execution and reporting.

``run_suite`` drives every backend through every scenario of a suite (see
:mod:`hazcom.scenarios`), checks each backend's records with the oracle and
scores them.  Suite execution is deterministic end to end: identical seeds
and configs produce byte-identical reports.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .clock import VirtualClock, ticks_to_seconds
from .core import ConfigurationError, ValidationError
from .dispatch import DeliveryRecord, dispatch, memory_registry
from .engine import Engine, EngineConfig, TraceRecord
from .metrics import (
    LossAccount,
    SubMetrics,
    _loss_terms,
    coordination_success,
    detection_accuracy,
    effectiveness,
    latency_compliance,
    message_alignment,
    objective_loss,  # noqa: F401  perfbench/tracing.py patches each metric by name here
)
from .oracle import Violation, oracle_verify
from .perception import Backend, FaultInjectingBackend

if TYPE_CHECKING:
    from .scenarios import Scenario, StepTruth

REPORT_FORMAT = "hazcom-report-v1"

# Memory sinks keep nothing, so every run shares one set.
_SINKS = memory_registry()


@dataclass(slots=True)
class ScenarioRun:
    """Trace, its wire form and deliveries of one backend on one scenario,
    each a tuple with one item per step."""

    trace: tuple[TraceRecord, ...]
    #: ``record.to_wire()`` of each trace record, built once: the oracle
    #: checks these dicts and the structured report holds them.
    wire: tuple[dict, ...]
    #: Each step's delivery records, ``()`` for a step with no output.
    deliveries: tuple[tuple[DeliveryRecord, ...], ...]

    @property
    def fallback_steps(self) -> int:
        return sum(record.fallback for record in self.trace)


@dataclass
class BackendResult:
    """Aggregated scoring of one backend over the whole suite."""

    sub_metrics: SubMetrics
    effectiveness: float
    loss: LossAccount
    runs: dict[str, ScenarioRun]
    violations: list[tuple[str, Violation]]
    scenario_accuracy: dict[str, float]


@dataclass
class SuiteReport:
    """Everything a suite execution produced, reproducibly ordered."""

    scenario_ids: list[str]
    backend_names: list[str]
    config: EngineConfig
    results: dict[str, BackendResult]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results.values())

    def to_json_dict(self) -> dict:
        """The structured report as JSON-ready values.

        Each scenario's array under ``"traces"`` is its run's ``wire`` tuple
        itself, not a copy: the returned dict shares those tuples and dicts
        with the report.
        """
        backends = {}
        for name in self.backend_names:
            result = self.results[name]
            backends[name] = {
                "sub_metrics": asdict(result.sub_metrics),
                "effectiveness": result.effectiveness,
                "loss": {
                    "l_hazard": result.loss.l_hazard,
                    "l_fatigue": result.loss.l_fatigue,
                    "lambda": result.loss.fatigue_lambda,
                    "total": result.loss.total,
                },
                "scenario_accuracy": result.scenario_accuracy,
                "violations": [
                    {
                        "scenario": scenario_id,
                        "record": v.record_index,
                        "field": v.field,
                        "rule": v.rule,
                        "detail": v.detail,
                    }
                    for scenario_id, v in result.violations
                ],
                "traces": {scenario_id: run.wire for scenario_id, run in result.runs.items()},
            }
        return {
            "format": REPORT_FORMAT,
            "config": {
                "t_max_ticks": self.config.t_max,
                "t_max_seconds": ticks_to_seconds(self.config.t_max),
                "weights": list(self.config.weights),
                "lambda": self.config.fatigue_lambda,
                "suppression_window": self.config.suppression_window,
                "timers": asdict(self.config.timers),
            },
            "scenarios": self.scenario_ids,
            "backends": backends,
            "comparison": self.comparison_rows(),
        }

    def comparison_rows(self) -> list[dict]:
        rows = []
        for name in self.backend_names:
            result = self.results[name]
            rows.append({
                "backend": name,
                **asdict(result.sub_metrics),
                "effectiveness": result.effectiveness,
                "loss_total": result.loss.total,
                "violations": len(result.violations),
            })
        return rows

    def to_text(self) -> str:
        lines = [
            "hazard-communication suite report",
            f"scenarios: {len(self.scenario_ids)}   "
            f"backends: {', '.join(self.backend_names)}",
            f"config: t_max={ticks_to_seconds(self.config.t_max):.1f}s  "
            f"lambda={self.config.fatigue_lambda}  "
            f"weights={'/'.join(str(w) for w in self.config.weights)}",
            "",
            f"{'backend':<20} {'eps_det':>8} {'eps_msg':>8} {'eps_coord':>10} "
            f"{'eps_lat':>8} {'eff':>8} {'l_haz':>7} {'l_fat':>7} {'loss':>8} {'viol':>5}",
        ]
        for row in self.comparison_rows():
            loss = self.results[row["backend"]].loss
            lines.append(
                f"{row['backend']:<20} {row['eps_det']:>8.4f} {row['eps_msg']:>8.4f} "
                f"{row['eps_coord']:>10.4f} {row['eps_lat']:>8.4f} "
                f"{row['effectiveness']:>8.4f} {loss.l_hazard:>7.1f} "
                f"{loss.l_fatigue:>7.1f} {loss.total:>8.1f} {row['violations']:>5d}"
            )
        lines.append("")
        for name in self.backend_names:
            result = self.results[name]
            lines.append(f"per-scenario accuracy ({name}):")
            for scenario_id in self.scenario_ids:
                run = result.runs[scenario_id]
                lines.append(
                    f"  {scenario_id:<24} steps={len(run.trace):<3d} "
                    f"fallbacks={run.fallback_steps:<3d} "
                    f"accuracy={result.scenario_accuracy[scenario_id]:.4f}"
                )
        lines.append("")
        if self.total_violations:
            lines.append("violations:")
            for name in self.backend_names:
                for scenario_id, violation in self.results[name].violations:
                    lines.append(f"  {name} / {scenario_id} / {violation}")
        else:
            lines.append("violations: none")
        return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario, backend: Backend, engine: Engine) -> ScenarioRun:
    """Drive one backend through one scenario on ``engine``, reset to a fresh
    virtual clock so that the scenario runs as if alone, and deliver each
    step's output through memory sinks."""
    clock = VirtualClock()
    engine.reset(clock)
    if scenario.fault_profile is not None:
        backend = FaultInjectingBackend(backend, scenario.fault_profile, clock)
    trace: list[TraceRecord] = []
    wire: list[dict] = []
    deliveries: list[tuple[DeliveryRecord, ...]] = []
    step, pop, prefix = engine.step, engine.queue.pop, scenario.scenario_id
    for index, obs in enumerate(scenario.observations):
        output, _, _, record = step(obs, backend, f"{prefix}:{index}")
        trace.append(record)
        wire.append(record.to_wire())
        # A step enqueues at most its one output, and each step drains the queue.
        deliveries.append(() if output is None else tuple(dispatch(pop(), _SINKS, clock.now)))
    return ScenarioRun(tuple(trace), tuple(wire), tuple(deliveries))


def run_suite(
    scenarios: Sequence[Scenario],
    backends: Mapping[str, Backend],
    config: EngineConfig | None = None,
) -> SuiteReport:
    """Run every backend over every scenario and score the results.

    Each backend runs every scenario on one engine, reset between
    scenarios, and the oracle checks all of its records in one pass.
    Deterministic end to end; any oracle violation is carried in the
    report, never swallowed.
    """
    if not scenarios:
        raise ValidationError("run_suite needs at least one scenario")
    if not backends:
        raise ValidationError("run_suite needs at least one backend")
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate scenario ids in suite")
    config = config if config is not None else EngineConfig()

    results: dict[str, BackendResult] = {}
    for name, backend in backends.items():
        engine = Engine(config=config)
        runs: dict[str, ScenarioRun] = {}
        scenario_accuracy: dict[str, float] = {}
        all_trace: list[TraceRecord] = []
        all_wire: list[dict] = []
        all_truth: list[Optional[StepTruth]] = []
        all_deliveries: list[tuple[DeliveryRecord, ...]] = []
        l_hazard = 0.0
        l_fatigue = 0.0
        for scenario in scenarios:
            run = run_scenario(scenario, backend, engine)
            runs[scenario.scenario_id] = run
            truth = scenario.ground_truth
            scenario_accuracy[scenario.scenario_id] = detection_accuracy(
                run.trace, truth
            )
            hazard, fatigue = _loss_terms(
                run.trace, truth, config.t_max, config.suppression_window
            )
            l_hazard += hazard
            l_fatigue += fatigue
            all_trace += run.trace
            all_wire += run.wire
            all_truth += truth
            all_deliveries += run.deliveries

        violations: list[tuple[str, Violation]] = []
        found = oracle_verify(all_wire)
        if found:
            # Each violation belongs to the scenario whose records hold its
            # index, at that index less the scenario's first record's.
            starts = list(accumulate((len(s.observations) for s in scenarios), initial=0))
            for violation in found:
                at = bisect_right(starts, violation.record_index) - 1
                violations.append((ids[at], replace(
                    violation, record_index=violation.record_index - starts[at]
                )))

        mean_latency = sum(r.t_total for r in all_trace) / len(all_trace)
        sub = SubMetrics(
            eps_det=detection_accuracy(all_trace, all_truth),
            eps_msg=message_alignment(all_trace, all_truth),
            eps_coord=coordination_success(all_deliveries, all_trace),
            eps_lat=latency_compliance(mean_latency, config.t_max),
        )
        results[name] = BackendResult(
            sub_metrics=sub,
            effectiveness=effectiveness(sub, config.weights),
            loss=LossAccount(l_hazard, l_fatigue, config.fatigue_lambda),
            runs=runs,
            violations=violations,
            scenario_accuracy=scenario_accuracy,
        )
    return SuiteReport(
        scenario_ids=ids,
        backend_names=list(backends.keys()),
        config=config,
        results=results,
    )
