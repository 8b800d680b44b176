"""Acceptance gate: the headline guarantees, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
``-v``) and then asserts, so the suite doubles as a checklist.
"""

import random
import time
from collections import deque

from hazcom import (
    Criticality,
    CrowdDensity,
    Engine,
    EngineConfig,
    EnvContext,
    HazardCategory,
    LocationType,
    ObjectBaselineBackend,
    PendingQueue,
    RiskScore,
    ScriptedBackend,
    SubMetrics,
    assemble_output,
    band_risk,
    baseline_object_assess,
    builtin_suite,
    effectiveness,
    latency_compliance,
    oracle_verify,
    recipients_for,
    run_suite,
    scripted_assess,
    sixty_run_suite,
    FaultInjectingBackend,
)
from hazcom.cli import main
from hazcom.perception import FaultProfile, builtin_rule_table
from hazcom.harness import run_scenario

from conftest import make_obs


def check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_observation(rng):
    pool = [
        [("knife", "on-floor")],
        [("knife", "in-use-cooking")],
        [("person", "on-floor-posture-abnormal")],
        [("person", "walking")],
        [("toy gun", "toy-packaging")],
        [("gun", "exposed")],
        [("trash", "overflowing")],
        [("bag", "unattended")],
        [("mystery-device", "sparking")],
        [],
    ]
    return make_obs(
        rng.choice(pool),
        location=rng.choice(list(LocationType)),
        crowd=rng.choice(list(CrowdDensity)),
        vulnerable=rng.random() < 0.2,
        caption="randomized patrol scene",
    )


def test_criterion_1_alarm_constraint_universal():
    started = time.monotonic()
    outputs = 0
    violations = 0

    report = run_suite(builtin_suite(), {
        "scripted": ScriptedBackend(),
        "object-baseline": ObjectBaselineBackend(),
    })
    for result in report.results.values():
        for run in result.runs.values():
            for record in run.trace:
                if record.criticality is not None:
                    outputs += 1
                    expected = record.criticality in (
                        Criticality.MEDIUM, Criticality.HIGH,
                    )
                    violations += record.alarm != expected

    rng = random.Random(20240)
    engine = Engine()
    backend = ScriptedBackend()
    flaky = FaultInjectingBackend(
        backend, FaultProfile(added_delay=0, failure_rate=0.05, seed=3),
        engine.clock,
    )
    slow = FaultInjectingBackend(
        backend, FaultProfile(added_delay=250, failure_rate=0.0), engine.clock
    )
    backends = [backend, flaky, slow]
    for i in range(10_000):
        result = engine.step(_random_observation(rng), backends[i % 3])
        if result.output is not None:
            outputs += 1
            expected = result.output.criticality in (
                Criticality.MEDIUM, Criticality.HIGH,
            )
            violations += result.output.alarm != expected
        engine.queue.pop()
    elapsed = time.monotonic() - started
    check(
        "criterion 1: alarm == (k in {Medium, High}) on 100% of outputs",
        violations == 0 and outputs > 3000,
        f"{outputs} outputs, {violations} violations, {elapsed:.2f}s",
    )
    check("criterion 1: runtime under 10 s", elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_2_band_threshold_sweep():
    mismatches = 0
    for i in range(0, 1001):
        rho = i / 100
        grade = band_risk(RiskScore(rho))
        if rho < 5.0:
            expected = Criticality.LOW
        elif rho < 8.0:
            expected = Criticality.MEDIUM
        else:
            expected = Criticality.HIGH
        alarm = grade in (Criticality.MEDIUM, Criticality.HIGH)
        if grade is not expected or alarm != (rho >= 5.0):
            mismatches += 1
    check(
        "criterion 2: band sweep 0.00..10.00 step 0.01, alarm iff score >= 5",
        mismatches == 0,
        "1001 points",
    )


def test_criterion_3_recipient_routing_exact():
    from hazcom import LocationBaselineBackend

    report = run_suite(builtin_suite(), {
        "scripted": ScriptedBackend(),
        "object-baseline": ObjectBaselineBackend(),
        "location-baseline": LocationBaselineBackend(),
    })
    exact = True
    hazard_steps = 0
    for result in report.results.values():
        if result.sub_metrics.eps_coord != 1.0:
            exact = False
        for run in result.runs.values():
            for record, group in zip(run.trace, run.deliveries):
                if record.criticality is None:
                    exact = exact and not group
                    continue
                hazard_steps += 1
                delivered = {r.channel for r in group}
                exact = exact and delivered == recipients_for(record.criticality)
                exact = exact and all(r.success for r in group)
    check(
        "criterion 3: delivered channels == mandated recipients, eps_coord == 1.0",
        exact and hazard_steps > 0,
        f"{hazard_steps} hazard steps",
    )


def test_criterion_4_context_disambiguation(s1_obs, s2_obs):
    table = builtin_rule_table()
    scripted_unsafe = scripted_assess(table, s1_obs)
    scripted_kitchen = scripted_assess(table, s2_obs)
    baseline_unsafe = baseline_object_assess(s1_obs)
    baseline_kitchen = baseline_object_assess(s2_obs)
    ok = (
        scripted_unsafe.factors.criticality_level is Criticality.HIGH
        and scripted_kitchen.factors.criticality_level is Criticality.LOW
        and baseline_unsafe.factors.criticality_level
        is baseline_kitchen.factors.criticality_level
    )
    check(
        "criterion 4: same object, different context -> High vs Low; "
        "object baseline identical",
        ok,
        f"scripted {scripted_unsafe.factors.criticality_level.value}/"
        f"{scripted_kitchen.factors.criticality_level.value}, baseline "
        f"{baseline_unsafe.factors.criticality_level.value} both",
    )


def test_criterion_5_baseline_accuracy_gap():
    report = run_suite(
        sixty_run_suite(),
        {"scripted": ScriptedBackend(), "object-baseline": ObjectBaselineBackend()},
    )
    scripted = report.results["scripted"].sub_metrics.eps_det
    baseline = report.results["object-baseline"].sub_metrics.eps_det
    gap = scripted - baseline
    check(
        "criterion 5: context-aware accuracy beats object baseline by >= 0.10",
        gap >= 0.10,
        f"scripted {scripted:.4f}, baseline {baseline:.4f}, gap {gap:.4f}",
    )


def test_criterion_6_latency_and_fallback(s1_obs):
    engine = Engine()
    result = engine.step(s1_obs, ScriptedBackend())
    twelve_seconds = result.timers.total == 120
    eps_lat = latency_compliance(12.0, 20.0)
    check(
        "criterion 6a: default timer profile totals 12 s, eps_lat = 0.4",
        twelve_seconds and abs(eps_lat - 0.4) <= 1e-9,
        f"t_total={result.timers.total} ticks, eps_lat={eps_lat!r}",
    )

    config = EngineConfig(t_max=200)
    delayed = [
        scenario
        for scenario in builtin_suite()
        if scenario.fault_profile is None
    ]
    ok = True
    affected = 0
    for scenario in delayed:
        slowed = scenario.__class__(
            scenario.scenario_id,
            scenario.observations,
            scenario.ground_truth,
            FaultProfile(added_delay=250, failure_rate=0.0, seed=0),
        )
        run = run_scenario(slowed, ScriptedBackend(), config)
        for record, truth in zip(run.trace, slowed.ground_truth):
            if truth is not None:
                # an affected hazard step: fallback fires, output is valid
                affected += 1
                ok = ok and record.fallback and record.criticality is not None
                ok = ok and record.t_total > config.t_max
            else:
                # still covered: an explicit, well-formed no-hazard record
                ok = ok and record.criticality is None
                ok = ok and not record.fallback
                ok = ok and record.alarm is False
                ok = ok and record.recipients == ()
    check(
        "criterion 6b: 25 s delay + 20 s budget -> fallback output on every "
        "affected step, none blocked",
        ok and affected > 0,
        f"{affected} hazard steps under delay",
    )


def test_criterion_7_effectiveness_formula():
    equal = (0.25, 0.25, 0.25, 0.25)
    perfect = effectiveness(SubMetrics(1.0, 1.0, 1.0, 1.0), equal)
    reported = effectiveness(SubMetrics(0.8, 0.82, 1.0, 0.4), equal)
    hand_oracle = 0.25 * (0.8 + 0.82 + 1.0 + 0.4)
    ok = (
        perfect == 1.0
        and abs(reported - 0.755) <= 1e-12
        and abs(reported - hand_oracle) <= 1e-12
    )
    check(
        "criterion 7: effectiveness(1,1,1,1) == 1.0; "
        "effectiveness(0.8,0.82,1.0,0.4) == 0.755",
        ok,
        f"perfect={perfect!r}, reported={reported!r}",
    )


def test_criterion_8_scheduler_priority():
    rng = random.Random(88)
    env = EnvContext(LocationType.CORRIDOR)
    categories = list(HazardCategory)

    sort_oracle_ok = True
    for _ in range(1000):
        n = rng.randint(0, 12)
        queue = PendingQueue()
        entries = []
        for arrival in range(n):
            output = assemble_output(
                rng.choice(categories), RiskScore(rng.uniform(0, 10)), env
            )
            queue.push(output)
            entries.append((arrival, output))
        expected = [
            output for _, output in sorted(
                entries,
                key=lambda pair: (
                    -pair[1].criticality.rank, -pair[1].risk.value, pair[0],
                ),
            )
        ]
        drained = []
        while (item := queue.pop()) is not None:
            drained.append(item)
        sort_oracle_ok = sort_oracle_ok and drained == expected
    check(
        "criterion 8a: 1000 random dequeues match the full-sort oracle",
        sort_oracle_ok,
    )

    ttfa_ok = True
    cases = 0
    for _ in range(300):
        j = rng.randint(1, 8)
        lows = [
            assemble_output(
                HazardCategory.WASTE, RiskScore(rng.uniform(0, 4.99)), env
            )
            for _ in range(j)
        ]
        high = assemble_output(
            HazardCategory.SHARP_OBJECT, RiskScore(rng.uniform(8, 10)), env
        )
        queue = PendingQueue()
        fifo = deque()
        for low in lows:
            queue.push(low)
            fifo.append(low)
        queue.push(high)
        fifo.append(high)
        priority_position = next(
            i for i in range(j + 1) if queue.pop() is high
        )
        fifo_position = next(
            i for i, item in enumerate(fifo) if item is high
        )
        ttfa_ok = ttfa_ok and priority_position < fifo_position
        cases += 1
    check(
        "criterion 8b: late High behind queued Lows always dispatches "
        "strictly earlier than FIFO",
        ttfa_ok and cases == 300,
        f"{cases} traces",
    )


def test_criterion_9_oracle_fuzzing():
    report = run_suite(builtin_suite(), {"scripted": ScriptedBackend()})
    base = []
    for run in report.results["scripted"].runs.values():
        base.extend(record.to_wire() for record in run.trace)
    assert oracle_verify(base) == []

    hazard_indices = [i for i, r in enumerate(base) if r["k"] is not None]
    chi_values = ["inquiry", "alert", "urgent"]
    k_values = ["Low", "Medium", "High"]
    recipient_sets = [
        ["nearby"], ["nearby", "remote"], ["nearby", "remote", "coordination"],
    ]
    rng = random.Random(99)
    detected = 0
    for _ in range(1000):
        records = [dict(r) for r in base]
        record = records[rng.choice(hazard_indices)]
        field = rng.choice(["alarm", "recipients", "chi", "gamma", "k"])
        if field == "alarm":
            record["alarm"] = not record["alarm"]
        elif field == "recipients":
            record["recipients"] = rng.choice([
                s for s in recipient_sets if set(s) != set(record["recipients"])
            ])
        elif field == "chi":
            record["chi"] = rng.choice(
                [c for c in chi_values if c != record["chi"]]
            )
        elif field == "gamma":
            record["gamma"] = (record["gamma"] + 3.0) % 10.0
        else:
            record["k"] = rng.choice(
                [k for k in k_values if k != record["k"]]
            )
        detected += bool(oracle_verify(records))
    check(
        "criterion 9: 1000 planted single-field corruptions all detected",
        detected == 1000,
        f"{detected}/1000",
    )


def test_criterion_10_run_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        report_path = tmp_path / f"{name}.json"
        code = main([
            "run", "--seed", "11", "--backend", "scripted",
            "--backend", "object-baseline", "--format", "structured",
            "--report", str(report_path),
        ])
        assert code == 0
        outputs.append(report_path.read_bytes())
    text_outputs = []
    for name in ("first", "second"):
        report_path = tmp_path / f"{name}.txt"
        main(["run", "--seed", "11", "--report", str(report_path)])
        text_outputs.append(report_path.read_bytes())
    check(
        "criterion 10: identical seed/config -> byte-identical reports",
        outputs[0] == outputs[1] and text_outputs[0] == text_outputs[1],
        f"{len(outputs[0])} bytes (structured), {len(text_outputs[0])} bytes (text)",
    )
