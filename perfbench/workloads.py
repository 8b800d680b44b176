"""Inputs and backends of the three benchmark workloads.

Every workload runs the same user flow (see ``run.py``); they differ only
in the scenarios they generate from the seed and in the backends they use.
``hazcom`` must be importable, i.e. ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hazcom as hz
from hazcom.clock import seconds_to_ticks
from hazcom.core import builtin_templates

HERE = Path(__file__).resolve().parent

# 2,200 scenarios give about 4,400 steps per backend, so the p99 of the
# simulated latency has at least 40 samples beyond it on every workload.
N_SCENARIOS = 2200

# The delay grid of scripts/fault_injection_sweep.py, in seconds.  With the
# default 20 s budget every delay above 8 s pushes the step past the budget.
FAULT_DELAYS_S = (0, 2.5, 5, 7.5, 10, 15, 20, 25, 30)
FAULTY_SHARE = 1 / 3
FAULT_FAILURE_RATE = 0.1


def local_backends() -> dict:
    """The three in-process backends of the harness comparison."""
    return {
        "scripted": hz.ScriptedBackend(),
        "object-baseline": hz.ObjectBaselineBackend(),
        "location-baseline": hz.LocationBaselineBackend(),
    }


def make_inputs(workload: str, seed: int) -> list:
    """The workload's scenarios; the same seed gives the same scenarios."""
    if workload != "fault_sweep":
        return hz.generate(seed, N_SCENARIOS)
    rng = random.Random(seed)
    scenarios = []
    for i, s in enumerate(hz.generate(seed, N_SCENARIOS, hz.MixConfig(hazard_fraction=1.0))):
        failure_rate = FAULT_FAILURE_RATE if rng.random() < FAULTY_SHARE else 0.0
        profile = hz.FaultProfile(
            added_delay=seconds_to_ticks(FAULT_DELAYS_S[i % len(FAULT_DELAYS_S)]),
            failure_rate=failure_rate,
            seed=rng.randrange(2**31),
        )
        scenarios.append(hz.Scenario(s.scenario_id, s.observations, s.ground_truth, profile))
    return scenarios


def reference_backends(workload: str) -> dict:
    """Backends whose report the workload's report must equal byte for byte.

    The loopback stub answers with the scripted verdict, so the remote
    workload's reference is the in-process scripted backend under the name
    ``remote``: the HTTP path must not change a single byte of the report.
    """
    if workload == "suite_local":
        return local_backends()
    if workload == "fault_sweep":
        return {"scripted": hz.ScriptedBackend()}
    return {"remote": hz.ScriptedBackend()}


def render_report(report) -> str:
    """The structured report exactly as ``hazcom run --format structured`` writes it."""
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of unsorted values (0.0 when there are none)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def suite_digests() -> dict:
    """SHA-256 of the builtin and sixty structured reports over the local backends."""
    return {
        name: sha256(render_report(hz.run_suite(suite(), local_backends())))
        for name, suite in (("builtin", hz.builtin_suite), ("sixty", hz.sixty_run_suite))
    }


class Stub:
    """The loopback stub model server, in its own process."""

    def __init__(self, src_dir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("the loopback stub exited before reporting its port")
        self.endpoint = f"http://127.0.0.1:{port}/assess"

    def close(self) -> None:
        """Stop the stub (it exits at end of input) and wait until it has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Workload:
    """A workload ready to run: its inputs, backends and stub, if any."""

    name: str
    scenarios: list
    backends: dict
    generate_s: float
    stub: Stub | None = None

    @property
    def faulted(self) -> bool:
        """Whether fallbacks are expected: faults are injected on purpose."""
        return self.name == "fault_sweep"

    @property
    def context_backend(self) -> str:
        """The context-aware backend whose effectiveness is reported."""
        return "remote" if self.name == "remote_loopback" else "scripted"

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def setup(workload: str, seed: int, src_dir: Path) -> Workload:
    """Build the rule and template tables, generate the inputs, start the stub."""
    hz.builtin_rule_table()
    builtin_templates()
    start = time.perf_counter()
    scenarios = make_inputs(workload, seed)
    generate_s = time.perf_counter() - start
    if workload == "remote_loopback":
        stub = Stub(src_dir)
        backends = {"remote": hz.RemoteBackend(stub.endpoint)}
        return Workload(workload, scenarios, backends, generate_s, stub)
    if workload == "fault_sweep":
        return Workload(workload, scenarios, {"scripted": hz.ScriptedBackend()}, generate_s)
    return Workload(workload, scenarios, local_backends(), generate_s)
