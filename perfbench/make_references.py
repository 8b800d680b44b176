"""Recompute ``references.json``, the report digests the correctness gate checks.

A change that is meant to alter reports regenerates this file and says so;
any other change must leave it alone.  The remote workload's digest comes
from the in-process scripted backend (see ``workloads.reference_backends``).

Usage (from the repository root):  python3 perfbench/make_references.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hazcom as hz  # noqa: E402  (needs src on sys.path)

import workloads  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

# Seeds 0-99 are for development and tuning; seed 9001 is held out to
# confirm a claimed gain on inputs the change was not written against.
SEEDS = (*range(100), 9001)


def main() -> None:
    refs = {"suites": workloads.suite_digests(), "workloads": {}}
    for workload in WORKLOAD_NAMES:
        digests = {}
        for seed in SEEDS:
            report = hz.run_suite(
                workloads.make_inputs(workload, seed), workloads.reference_backends(workload)
            )
            digests[str(seed)] = workloads.sha256(workloads.render_report(report))
            print(workload, seed, digests[str(seed)], flush=True)
        refs["workloads"][workload] = digests
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
