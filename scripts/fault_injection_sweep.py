#!/usr/bin/env python3
"""Sweep injected backend delay and show how the pipeline degrades.

For each added delay the builtin hazard scenarios are re-run with that
delay injected; the table reports the fallback rate, mean latency, and
latency compliance.  With the default 20 s budget the fallback path takes
over once the total crosses the budget: a delay above 8 s on top of the
12 s profile (8.0 s gives a fallback rate of 0, 8.1 s a rate of 1).
"""

import argparse

from hazcom import Engine, EngineConfig, ScriptedBackend, builtin_suite
from hazcom.clock import seconds_to_ticks, ticks_to_seconds
from hazcom.harness import Scenario, run_scenario
from hazcom.metrics import latency_compliance
from hazcom.perception import FaultProfile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=float, default=20.0, help="budget in seconds")
    parser.add_argument(
        "--delays", default="0,2.5,5,7.5,10,15,20,25,30",
        help="comma-separated delays in seconds",
    )
    args = parser.parse_args()

    config = EngineConfig(t_max=seconds_to_ticks(args.t_max))
    scenarios = [s for s in builtin_suite() if s.fault_profile is None]
    print(f"{'delay_s':>8} {'fallback_rate':>14} {'mean_latency_s':>15} {'eps_lat':>8}")
    for delay_s in (float(d) for d in args.delays.split(",")):
        fallbacks = 0
        outputs = 0
        latencies = []
        for scenario in scenarios:
            slowed = Scenario(
                scenario.scenario_id,
                scenario.observations,
                scenario.ground_truth,
                FaultProfile(added_delay=seconds_to_ticks(delay_s)),
            )
            run = run_scenario(slowed, ScriptedBackend(), Engine(config))
            for record in run.trace:
                latencies.append(record.t_total)
                if record.criticality is not None:
                    outputs += 1
                    fallbacks += record.fallback
        mean_ticks = sum(latencies) / len(latencies)
        print(
            f"{delay_s:>8.1f} {fallbacks / outputs:>14.2f} "
            f"{ticks_to_seconds(round(mean_ticks)):>15.2f} "
            f"{latency_compliance(mean_ticks, config.t_max):>8.3f}"
        )


if __name__ == "__main__":
    main()
