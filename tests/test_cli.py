import dataclasses
import hashlib
import json

import pytest

from hazcom import builtin_suite, read_trace, save_scenarios
from hazcom.cli import EXIT_CLEAN, EXIT_CONFIG, EXIT_VIOLATION, main


class TestBackendSpecs:
    def test_remote_spec_parsed(self):
        from hazcom import RemoteBackend
        from hazcom.cli import make_backend

        backend = make_backend("remote:http://10.0.0.1:8080/assess", 200)
        assert isinstance(backend, RemoteBackend)
        assert backend.endpoint == "http://10.0.0.1:8080/assess"
        assert backend.timeout_ticks == 200

    def test_remote_spec_needs_address(self):
        from hazcom import ConfigurationError
        from hazcom.cli import make_backend

        with pytest.raises(ConfigurationError, match="remote"):
            make_backend("remote:", 200)

    def test_remote_address_without_scheme_exits_2(self, capsys):
        # Rejected when the backend is built, not by a fallback on every step.
        assert main(["run", "--backend", "remote:127.0.0.1:8000"]) == EXIT_CONFIG
        assert "http://" in capsys.readouterr().err


class TestRun:
    def test_run_default_suite(self, capsys):
        assert main(["run"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "scripted" in out
        assert "violations: none" in out

    def test_run_structured_report_to_file(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "run", "--backend", "scripted", "--backend", "object-baseline",
            "--format", "structured", "--report", str(report_path),
        ])
        assert code == EXIT_CLEAN
        document = json.loads(report_path.read_text())
        assert document["format"] == "hazcom-report-v1"
        assert set(document["backends"]) == {"scripted", "object-baseline"}

    def test_run_with_scenario_file(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        save_scenarios(suite_path, builtin_suite()[:2])
        assert main(["run", "--scenarios", str(suite_path)]) == EXIT_CLEAN
        assert "S1-knife-unsafe-area" in capsys.readouterr().out

    def test_run_sixty_suite(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "run", "--suite", "sixty", "--format", "structured",
            "--report", str(report_path),
        ])
        assert code == EXIT_CLEAN
        document = json.loads(report_path.read_text())
        assert len(document["scenarios"]) == 60

    def test_unknown_backend_is_config_error(self, capsys):
        assert main(["run", "--backend", "psychic"]) == EXIT_CONFIG
        assert "unknown backend" in capsys.readouterr().err

    def test_missing_scenario_file_is_config_error(self):
        assert main(["run", "--scenarios", "/nonexistent.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag, value", [
        ("--t-max", "nan"), ("--t-max", "inf"), ("--t-max", "1e400"),
        ("--lambda", "nan"), ("--lambda", "inf"),
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, command, flag, value):
        report = tmp_path / "report.json"
        code = main([command, flag, value, "--format", "structured", "--report", str(report)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not report.exists()

    def test_non_finite_report_is_config_error(self, tmp_path, capsys):
        # A finite lambda this large makes the loss total infinite, which
        # JSON cannot hold.
        report = tmp_path / "report.json"
        code = main([
            "run", "--lambda", "1e308", "--backend", "object-baseline",
            "--format", "structured", "--report", str(report),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite loss total" in err
        assert not report.exists()

    def test_non_finite_loss_is_config_error_in_text_too(self, tmp_path, capsys):
        # The text report would print "loss inf"; both formats refuse alike.
        report = tmp_path / "report.txt"
        code = main([
            "run", "--lambda", "1e308", "--backend", "object-baseline",
            "--report", str(report),
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite loss total: ")
        assert captured.err.count("\n") == 1
        assert not report.exists()

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--seed", "7", "--format", "structured"]
        assert main(argv + ["--report", str(a)]) == EXIT_CLEAN
        assert main(argv + ["--report", str(b)]) == EXIT_CLEAN
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suite, digest", [
        ("builtin", "20a19019c1213e2def864ca122cd969ccf3c6611610c4354b3f9b2a781d96fa1"),
        ("sixty", "fa631b8fc538de20fabe14fc35c16d641b48f626fd3c6376831257ac3104b39d"),
    ])
    def test_structured_report_matches_golden_digest(self, tmp_path, suite, digest):
        path = tmp_path / "report.json"
        code = main([
            "run", "--suite", suite, "--backend", "scripted",
            "--backend", "object-baseline", "--backend", "location-baseline",
            "--format", "structured", "--report", str(path),
        ])
        assert code == EXIT_CLEAN
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCompare:
    def test_compare_defaults(self, capsys):
        assert main(["compare"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "scripted" in out
        assert "object-baseline" in out

    def test_compare_needs_two_backends(self, capsys):
        code = main(["compare", "--backend", "scripted"])
        assert code == EXIT_CONFIG
        assert "exactly two" in capsys.readouterr().err


class TestTraceFiles:
    def test_names_outside_the_safe_set_are_percent_encoded(self, tmp_path, capsys):
        # A remote backend spec holds ':' and '/', and so may a scenario id;
        # each name stays one path component, and an unreachable backend's
        # fallback traces verify and replay.
        scenarios = [
            dataclasses.replace(s, scenario_id=scenario_id)
            for s, scenario_id in zip(builtin_suite(), ["a/b", "S2 ~%", "S3-plain_1.x"])
        ]
        suite = tmp_path / "suite.jsonl"
        save_scenarios(suite, scenarios)
        trace_dir = tmp_path / "traces"
        remote = "remote:http://127.0.0.1:9/assess"
        code = main(["run", "--scenarios", str(suite), "--backend", remote,
                     "--backend", "scripted", "--trace", str(trace_dir),
                     "--report", str(tmp_path / "r.txt")])
        assert code == EXIT_CLEAN
        remote_name = "remote%3Ahttp%3A%2F%2F127.0.0.1%3A9%2Fassess"
        assert sorted(p.name for p in trace_dir.iterdir()) == sorted(
            f"{backend}__{scenario}.jsonl"
            for backend in (remote_name, "scripted")
            for scenario in ("a%2Fb", "S2%20%7E%25", "S3-plain_1.x")
        )
        for path in trace_dir.iterdir():
            assert main(["verify", str(path)]) == EXIT_CLEAN
            assert main(["replay", str(path)]) == EXIT_CLEAN
        fallbacks = [r.fallback for r in read_trace(trace_dir / f"{remote_name}__a%2Fb.jsonl")]
        assert fallbacks and all(fallbacks)

    def test_unwritable_trace_directory_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["run", "--trace", str(blocker / "traces"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyAndReplay:
    @pytest.fixture
    def trace_path(self, tmp_path):
        trace_dir = tmp_path / "traces"
        main(["run", "--trace", str(trace_dir), "--report", str(tmp_path / "r.txt")])
        path = trace_dir / "scripted__S1-knife-unsafe-area.jsonl"
        assert path.exists()
        return path

    def test_verify_clean_trace(self, trace_path, capsys):
        assert main(["verify", str(trace_path)]) == EXIT_CLEAN
        assert "0 violations" in capsys.readouterr().out

    def test_verify_corrupted_trace_exits_nonzero(self, trace_path, capsys):
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines() if line
        ]
        hazard = next(r for r in records if r["k"] is not None)
        hazard["alarm"] = not hazard["alarm"]
        trace_path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        assert main(["verify", str(trace_path)]) == EXIT_VIOLATION
        assert "alarm rule" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [("alarm", "yes"), ("tick", 1.7)])
    def test_verify_reports_a_scalar_of_wrong_type(self, trace_path, capsys, field, value):
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines() if line
        ]
        next(r for r in records if r["k"] == "High")[field] = value
        trace_path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        assert main(["verify", str(trace_path)]) == EXIT_VIOLATION
        assert "wire-type rule" in capsys.readouterr().out

    @pytest.mark.parametrize("rho", [True, None])
    def test_verify_reports_a_non_numeric_score_and_goes_on(self, tmp_path, trace_path, capsys, rho):
        hazard = next(
            json.loads(line) for line in trace_path.read_text().splitlines()
            if line and json.loads(line)["k"] is not None
        )
        path = tmp_path / "two.jsonl"
        path.write_text(json.dumps(dict(hazard, rho=rho)) + "\n"
                        + json.dumps(dict(hazard, alarm="yes")) + "\n")
        assert main(["verify", str(path)]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "record 0: [score-range rule] rho" in out
        assert "record 1: [wire-type rule] alarm" in out
        assert "2 records checked" in out

    @pytest.mark.parametrize("field, label", [
        ("category", "NotACategory"), ("tau", "Whenever"), ("phi", "Nope"),
    ])
    def test_verify_flags_a_label_that_replay_rejects(self, trace_path, capsys, field, label):
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines() if line
        ]
        next(r for r in records if r["k"] is not None)[field] = label
        trace_path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        assert main(["replay", str(trace_path)]) == EXIT_CONFIG
        assert main(["verify", str(trace_path)]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert f"[label rule] {field}: unknown" in out
        assert f"{label!r}" in out
        assert "1 violations" in out

    def test_verify_missing_file(self):
        assert main(["verify", "/nonexistent.jsonl"]) == EXIT_CONFIG

    def test_verify_malformed_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["verify", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["verify", "replay"])
    @pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
    def test_unreadable_trace_is_config_error(self, trace_path, command, unreadable):
        if unreadable == "directory":
            trace_path = trace_path.parent
        else:
            trace_path.write_bytes(b"\xff" + trace_path.read_bytes())
        assert main([command, str(trace_path)]) == EXIT_CONFIG

    def test_replay_redelivers(self, trace_path, capsys):
        assert main(["replay", str(trace_path)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "channel=nearby" in out
        assert "deliveries" in out


class TestGen:
    @pytest.mark.parametrize("seed, digest", [
        ("0", "866bcec3a7d3b2557cc03480d3d66d3201c741e9ed4a4fbfc16fd46b8275dd9c"),
        ("5", "bfb73a8e5d43513aaa3d0f1ae9e0fcb7a5bc5358ae64505c702a3255bbb38b8b"),
        ("9001", "110adab640a3ae121874b75af205880c06ba1a25f6e6dc8aa76dcc7d7a5b0290"),
    ])
    def test_gen_matches_golden_digest(self, tmp_path, capsys, seed, digest):
        assert main(["gen", "--seed", seed, "--n", "200"]) == EXIT_CLEAN
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == digest
        path = tmp_path / "generated.json"
        assert main(["gen", "--seed", seed, "--n", "200", "--report", str(path)]) == EXIT_CLEAN
        assert path.read_bytes() == stdout

    def test_gen_locations_matches_golden_digest(self, capsys):
        argv = ["gen", "--seed", "24", "--n", "200",
                "--locations", "Kitchen=3,Corridor=0.5,Office=0"]
        assert main(argv) == EXIT_CLEAN
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == (
            "a2851b715b8bffa38f4251e77bccab0222a913145d75a82c03b3ee4c46e22160"
        )

    @pytest.mark.parametrize("flag, spec", [
        ("--mix", "Waste=inf"),
        ("--mix", "Waste=nan"),
        ("--locations", "Kitchen=inf"),
        ("--locations", "Kitchen=1e308,Office=1e308"),
    ])
    def test_gen_non_finite_weight_is_config_error(self, capsys, flag, spec):
        assert main(["gen", "--n", "5", flag, spec]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid mix: ")
        assert captured.err.count("\n") == 1

    def test_gen_writes_loadable_suite(self, tmp_path, capsys):
        path = tmp_path / "generated.json"
        code = main(["gen", "--seed", "5", "--n", "12", "--report", str(path)])
        assert code == EXIT_CLEAN
        from hazcom import load_scenarios

        assert len(load_scenarios(path)) == 12

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--seed", "5", "--n", "2"]) == EXIT_CLEAN
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "hazcom-scenarios-v1"

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--seed", "9", "--n", "10", "--report", str(a)])
        main(["gen", "--seed", "9", "--n", "10", "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_mix_flag(self, tmp_path):
        path = tmp_path / "mix.json"
        code = main([
            "gen", "--seed", "1", "--n", "6",
            "--mix", "Waste=5,SharpObject=0,PersonDown=0,Distress=0,"
                     "SuspiciousItem=0,UnattendedItem=0",
            "--report", str(path),
        ])
        assert code == EXIT_CLEAN
        document = json.loads(path.read_text())
        categories = {
            step["truth"]["category"]
            for scenario in document["scenarios"]
            for step in scenario["steps"]
            if step["truth"] is not None
        }
        assert categories <= {"Waste"}

    def test_gen_bad_mix_is_config_error(self, capsys):
        assert main(["gen", "--mix", "Plutonium=1"]) == EXIT_CONFIG
        assert main(["gen", "--hazard-fraction", "2.0"]) == EXIT_CONFIG
