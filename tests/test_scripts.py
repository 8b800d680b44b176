"""Smoke tests for the experiment scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout


def test_fault_sweep_falls_back_just_past_the_budget():
    # The 12 s profile plus 8 s of injected delay meets the 20 s budget
    # exactly; one more tick sends every output through the fallback path.
    assert run_script("fault_injection_sweep.py", "--delays", "8,8.1") == (
        " delay_s  fallback_rate  mean_latency_s  eps_lat\n"
        "     8.0           0.00           20.00    0.000\n"
        "     8.1           1.00           20.10    0.000\n"
    )
