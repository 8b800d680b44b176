"""Smoke tests for the experiment scripts under ``scripts/``."""

import importlib.util
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


def test_fault_sweep_default_grid():
    # The default grid, 0-30 s: the total is the 12 s profile plus the delay,
    # and every delay above 8 s sends every output through the fallback path.
    assert run_script("fault_injection_sweep.py") == (
        " delay_s  fallback_rate  mean_latency_s  eps_lat\n"
        "     0.0           0.00           12.00    0.400\n"
        "     2.5           0.00           14.50    0.275\n"
        "     5.0           0.00           17.00    0.150\n"
        "     7.5           0.00           19.50    0.025\n"
        "    10.0           1.00           22.00    0.000\n"
        "    15.0           1.00           27.00    0.000\n"
        "    20.0           1.00           32.00    0.000\n"
        "    25.0           1.00           37.00    0.000\n"
        "    30.0           1.00           42.00    0.000\n"
    )


def load_mutation_check():
    path = ROOT / "scripts" / "mutation_check.py"
    spec = importlib.util.spec_from_file_location("mutation_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_check_entries_apply():
    # Each mutant's old text occurs exactly once, so an edit that moves or
    # repeats it fails here and not only in the slower mutation step.
    module = load_mutation_check()
    assert module.problems() == []
    assert len({mutant.name for mutant in module.MUTANTS}) == len(module.MUTANTS)


def test_mutation_check_counts_no_run_test_as_no_kill(monkeypatch, capsys):
    # The second mutant's only tests are digests, which the check deselects:
    # pytest exits 5 having run nothing, and that must not pass for a kill,
    # even while the first mutant keeps the unmutated run non-empty.  The
    # first stops the package importing (its object policy holds a High
    # score of 8.0), so pytest cannot load the conftest and exits 4.
    module = load_mutation_check()
    named = {m.name: m for m in module.MUTANTS}
    kept = named["score 8.0 bands to Medium"]
    unjudged = named["oracle bands 8.0 as Medium"]._replace(
        tests=("tests/test_oracle.py::TestVerdictCorpus",))
    monkeypatch.setattr(module, "MUTANTS", (kept, unjudged))
    assert module.main() == 2
    out, err = capsys.readouterr()
    assert "killed at import: score 8.0 bands to Medium" in out
    assert "NOT JUDGED (pytest exit 5): oracle bands 8.0 as Medium" in out
    assert "1 of 2 mutants were judged by no test: oracle bands 8.0 as Medium" in err
