"""The hazcom benchmark: one workload, one seed, a closed loop for --seconds.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_local --seed 0 --seconds 25 --trace 0

Each pass is the user flow ``hazcom run --format structured --trace DIR``
followed by ``hazcom verify`` on the traces, made through the library calls
those commands make.  After one untimed reference pass over all the inputs,
a single caller times the flow on batch after batch of them, each step only
after the last one finished, until --seconds have gone and a cycle through
the inputs has ended.  Every pass is checked; the last line of standard
output is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("suite_local", "fault_sweep", "remote_loopback")
# Set-up samples taken before and after the timed loop, so that their median
# spans the run rather than one moment of a shared host.
SETUP_RUNS_BEFORE, SETUP_RUNS_AFTER = 4, 3
# The calibration slice's time on an idle core of the 2-vCPU machine the
# bounds were set on.  ``setup_s`` is given in seconds of a host that fast.
REFERENCE_SLICE_S = 0.018


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_samples(workload: str, seed: int, runs: int) -> list[tuple[float, float]]:
    """Times from process start to a workload ready to run, one per fresh process.

    Each sample pays interpreter start, import, the builtin tables, input
    generation and the stub's start, as a user's ``hazcom run`` does.  It
    comes with the median time of the calibration slices timed just before
    and just after it, which tells how fast the host ran meanwhile.
    """
    samples = []
    for _ in range(runs):
        slices = [calibrate.slice_seconds() for _ in range(2)]
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
        if not ready or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
        slices += [calibrate.slice_seconds() for _ in range(2)]
        samples.append((elapsed, statistics.median(slices)))
    return samples


def throughput(samples: list[tuple]) -> float:
    """Steps per second over all the timed batches."""
    elapsed = sum(e for _, e, _ in samples)
    return sum(s for s, _, _ in samples) / elapsed if elapsed else 0.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hazcom" / "__init__.py").is_file():
        print(f"error: no hazcom sources under {SRC}", file=sys.stderr)
        return 2
    # The closed loop never needs two cores at once.  On one core the client
    # and the stub hand over without waking an idle CPU, which a shared host
    # makes slow and erratic; children (set-ups, the stub) inherit the core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import passes
    import tracing
    import workloads

    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    reference = references["workloads"][args.workload].get(str(args.seed))
    if reference is None:
        print(f"note: no stored report digest for seed {args.seed}; "
              "checking every batch against the reference pass", file=sys.stderr)

    setup_times = setup_samples(args.workload, args.seed, SETUP_RUNS_BEFORE)
    w = workloads.setup(args.workload, args.seed, SRC)
    tally = {"attempted": 0, "failed": 0}
    checker = passes.Checker(w, reference)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            workdir = Path(tmp)
            seconds = args.seconds / 2 if args.trace else args.seconds
            behaviour = passes.reference_pass(w, checker, workdir, tally)
            samples, cycles = passes.measure(w, checker, workdir, seconds, tally)
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.instrument(tracer, w):
                    traced_samples, traced_cycles = passes.measure(
                        w, checker, workdir, seconds, tally)
                layers = tracing.layer_metrics(tracer, traced_cycles)
    finally:
        w.close()
    setup_times += setup_samples(args.workload, args.seed, SETUP_RUNS_AFTER)

    digests = workloads.suite_digests()
    correct = tally["failed"] == 0 and bool(samples) and digests == references["suites"]
    steps_per_s = throughput(samples)
    end_to_end = {
        # Each set-up scaled to the reference host speed by the slices around it.
        "setup_s": (
            statistics.median(e * REFERENCE_SLICE_S / c for e, c in setup_times), "s"),
        "steps_per_cal_slice": (
            statistics.median(steps / elapsed * slice_s for steps, elapsed, slice_s in samples)
            if samples else 0.0,
            "steps/slice",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    error_rate = tally["failed"] / max(tally["attempted"], 1)
    shown = dict(
        end_to_end,
        steps_per_s=(steps_per_s, "steps/s"),
        setup_wall_s=(statistics.median(e for e, _ in setup_times), "s"),
        cal_slice_ms=(statistics.median(c for _, _, c in samples) * 1e3 if samples else 0.0, "ms"),
        **behaviour,
        error_rate=(error_rate, "ratio"),
    )
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} clean timed batches, "
          f"{cycles} cycles through {checker.steps} steps")
    for name in ("builtin", "sixty"):
        print(f"{name}_report_sha256 {digests[name]}")
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        traced = throughput(traced_samples)
        metrics = dict(
            layers,
            **behaviour,
            error_rate=(error_rate, "ratio"),
            **{
                "harness.generate_s": (w.generate_s, "s"),
                "trace.steps_per_s_untraced": (steps_per_s, "steps/s"),
                "trace.steps_per_s_traced": (traced, "steps/s"),
                "trace.overhead_steps_per_s": (steps_per_s - traced, "steps/s"),
            },
        )
        for name, (value, unit) in metrics.items():
            if name not in shown:
                print(f"{name} {value:.6g} {unit}")
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
