"""Command-line surface.

Subcommands: ``run`` (execute a suite and write a report), ``verify``
(check a trace log against the policy oracle), ``compare`` (two backends,
side-by-side), ``replay`` (re-dispatch a trace through sinks), and ``gen``
(write a randomized scenario file).

Exit codes: 0 clean, 1 oracle violation found, 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from urllib.parse import quote

from .clock import seconds_to_ticks
from .core import (
    CommOutput,
    ConfigurationError,
    HazardCategory,
    LocationType,
    MessageTuple,
    RiskScore,
    ValidationError,
    enum_from_label,
)
from .dispatch import dispatch, memory_registry
from .engine import EngineConfig, TraceRecord, read_json_lines, read_trace, write_trace
from .harness import (
    MixConfig,
    SuiteReport,
    builtin_suite,
    generate,
    load_scenarios,
    run_suite,
    scenario_file_text,
    sixty_run_suite,
)
from .oracle import oracle_verify
from .perception import (
    Backend,
    LocationBaselineBackend,
    ObjectBaselineBackend,
    RemoteBackend,
    ScriptedBackend,
)

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def make_backend(spec: str, timeout_ticks: int) -> Backend:
    """Build a backend from a CLI spec string."""
    if spec == "scripted":
        return ScriptedBackend()
    if spec == "object-baseline":
        return ObjectBaselineBackend()
    if spec == "location-baseline":
        return LocationBaselineBackend()
    if spec.startswith("remote:"):
        endpoint = spec[len("remote:"):]
        if not endpoint:
            raise ConfigurationError("remote backend needs an address: remote:<addr>")
        return RemoteBackend(endpoint, timeout_ticks=timeout_ticks)
    raise ConfigurationError(
        f"unknown backend {spec!r}; expected scripted, object-baseline, "
        "location-baseline, or remote:<addr>"
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenarios", help="scenario file (default: builtin suite)")
    parser.add_argument(
        "--suite", choices=("builtin", "sixty"), default="builtin",
        help="which builtin suite to use when --scenarios is not given",
    )
    parser.add_argument(
        "--backend", action="append", dest="backends", metavar="BACKEND",
        help="scripted | object-baseline | location-baseline | remote:<addr> "
             "(repeatable)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="ignored: runs draw no random numbers; accepted for compatibility",
    )
    parser.add_argument(
        "--t-max", type=float, default=20.0, metavar="SECONDS",
        help="latency budget in seconds (default 20)",
    )
    parser.add_argument(
        "--lambda", dest="fatigue_lambda", type=float, default=1.0,
        help="fatigue penalty weight (default 1.0)",
    )
    parser.add_argument("--report", help="write the report here instead of stdout")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="report format (structured = JSON)",
    )
    parser.add_argument(
        "--trace", metavar="DIR",
        help="also write one trace log per (backend, scenario) into DIR",
    )


def _load_suite(args: argparse.Namespace):
    if args.scenarios:
        return load_scenarios(args.scenarios)
    return sixty_run_suite() if args.suite == "sixty" else builtin_suite()


def _build_config(args: argparse.Namespace) -> EngineConfig:
    try:
        t_max = seconds_to_ticks(args.t_max)
    except (OverflowError, ValueError) as exc:  # inf or NaN seconds
        raise ConfigurationError(f"--t-max must be a finite number, got {args.t_max}") from exc
    return EngineConfig(t_max=t_max, fatigue_lambda=args.fatigue_lambda)


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_report(report: SuiteReport, fmt: str) -> str:
    if fmt == "structured":
        try:
            text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # JSON has no NaN or infinity
            raise ConfigurationError(f"the report holds a non-finite number: {exc}") from exc
        return text + "\n"
    return report.to_text()


def _write_traces(report: SuiteReport, trace_dir: str) -> None:
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for backend_name in report.backend_names:
        for scenario_id, run in report.results[backend_name].runs.items():
            # Percent-encoded outside [A-Za-z0-9._-], a name such as
            # remote:http://host/path__S1 stays one path component.
            name = quote(f"{backend_name}__{scenario_id}", safe="", errors="surrogatepass")
            path = directory / f"{name.replace('~', '%7E')}.jsonl"
            path.write_text("", encoding="utf-8")
            write_trace(path, run.trace)


def cmd_run(args: argparse.Namespace) -> int:
    scenarios = _load_suite(args)
    config = _build_config(args)
    specs = args.backends or ["scripted"]
    backends = {spec: make_backend(spec, config.t_max) for spec in specs}
    report = run_suite(scenarios, backends, config)
    _emit(_render_report(report, args.format), args.report)
    if args.trace:
        _write_traces(report, args.trace)
    return EXIT_VIOLATION if report.total_violations else EXIT_CLEAN


def cmd_compare(args: argparse.Namespace) -> int:
    args.backends = args.backends or ["scripted", "object-baseline"]
    if len(args.backends) != 2:
        raise ConfigurationError(
            f"compare needs exactly two --backend flags, got {len(args.backends)}"
        )
    return cmd_run(args)


def cmd_verify(args: argparse.Namespace) -> int:
    records = [doc for _, doc in read_json_lines(args.trace_file)]
    violations = oracle_verify(records)
    for violation in violations:
        print(violation)
    print(f"{len(records)} records checked, {len(violations)} violations")
    return EXIT_VIOLATION if violations else EXIT_CLEAN


def _output_from_record(record: TraceRecord) -> CommOutput | None:
    if record.criticality is None:
        return None
    if record.text is None or record.tone is None or record.character is None:
        raise ValidationError(
            f"record {record.obs_id}: cannot replay without text/tone/character"
        )
    message = MessageTuple(record.text, record.tone, record.character)
    return CommOutput(
        message=message,
        recipients=frozenset(record.recipients),
        alarm=record.alarm,
        criticality=record.criticality,
        risk=RiskScore(record.risk),
        category=record.category,
    )


def cmd_replay(args: argparse.Namespace) -> int:
    records = read_trace(args.trace_file)
    sinks = memory_registry()
    delivered = []
    for record in records:
        output = _output_from_record(record)
        if output is None:
            continue
        delivered.extend(dispatch(output, sinks, record.tick))
    lines = [
        f"tick={r.tick} channel={r.channel.value} success={r.success} {r.detail}"
        for r in delivered
    ]
    summary = f"replayed {len(records)} records, {len(delivered)} deliveries"
    _emit("\n".join(lines + [summary]) + "\n", args.report)
    return EXIT_CLEAN


def _parse_weight_map(spec: str, enum_cls, what: str) -> dict:
    weights = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if not _:
            raise ConfigurationError(f"bad {what} entry {part!r}; expected NAME=WEIGHT")
        try:
            member = enum_from_label(enum_cls, name.strip(), what)
            weights[member] = float(value)
        except (ValidationError, ValueError) as exc:
            raise ConfigurationError(f"bad {what} entry {part!r}: {exc}") from exc
    return weights


def cmd_gen(args: argparse.Namespace) -> int:
    categories = {category: 1.0 for category in HazardCategory}
    locations = {location: 1.0 for location in LocationType}
    if args.mix:
        categories.update(_parse_weight_map(args.mix, HazardCategory, "category mix"))
    if args.locations:
        locations.update(_parse_weight_map(args.locations, LocationType, "location mix"))
    try:
        mix = MixConfig(
            hazard_fraction=args.hazard_fraction,
            category_weights=categories,
            location_weights=locations,
        )
        scenarios = generate(args.seed, args.n, mix)
    except ValidationError as exc:
        raise ConfigurationError(f"invalid mix: {exc}") from exc
    _emit(scenario_file_text(scenarios), args.report)
    if args.report:
        print(f"wrote {len(scenarios)} scenarios to {args.report}")
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazcom",
        description="Context-aware hazard triage and alert routing harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a suite and write a report")
    _add_common_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare", help="two backends side by side")
    _add_common_flags(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    verify_parser = sub.add_parser("verify", help="check a trace log with the oracle")
    verify_parser.add_argument("trace_file", help="trace log (one JSON record per line)")
    verify_parser.set_defaults(func=cmd_verify)

    replay_parser = sub.add_parser("replay", help="re-dispatch a trace through sinks")
    replay_parser.add_argument("trace_file", help="trace log (one JSON record per line)")
    replay_parser.add_argument("--report", help="write the delivery log here")
    replay_parser.set_defaults(func=cmd_replay)

    gen_parser = sub.add_parser("gen", help="generate a randomized scenario file")
    gen_parser.add_argument("--seed", type=int, default=0)
    gen_parser.add_argument("--n", type=int, default=60, help="number of scenarios")
    gen_parser.add_argument(
        "--hazard-fraction", type=float, default=0.8,
        help="fraction of steps that contain a hazard (default 0.8)",
    )
    gen_parser.add_argument(
        "--mix", help="category weights, e.g. 'SharpObject=2,Waste=1'"
    )
    gen_parser.add_argument(
        "--locations", help="location weights, e.g. 'Kitchen=1,Corridor=3'"
    )
    gen_parser.add_argument("--report", help="output scenario file (default: stdout)")
    gen_parser.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
