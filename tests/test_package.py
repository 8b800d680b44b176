"""The package loads each submodule when a name from it is first read.

Each check runs in a fresh interpreter, because this process has long since
loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hazcom

SRC = Path(hazcom.__file__).resolve().parent.parent
EXECUTION = ("harness", "engine", "oracle", "dispatch", "metrics")


def fresh(code: str):
    """What ``code`` prints as JSON, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    return json.loads(out)


def loaded_after(code: str) -> list[str]:
    """The hazcom submodules loaded once ``code`` has run, in a new interpreter."""
    return fresh(f"{code}\nimport json, sys\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hazcom.'))))")


def test_perception_loads_no_suite_execution():
    loaded = loaded_after("import hazcom.perception")
    assert "hazcom.perception" in loaded
    assert [m for m in loaded if m.split(".")[1] in EXECUTION] == []


def test_generation_loads_no_suite_execution_or_http_client():
    loaded = loaded_after("import hazcom\nhazcom.generate(0, 3)")
    assert "hazcom.scenarios" in loaded
    assert [m for m in loaded if m.split(".")[1] in (*EXECUTION, "_http")] == []


def test_gen_subcommand_loads_no_suite_execution():
    loaded = loaded_after("import contextlib, io\nfrom hazcom import cli\n"
                          "with contextlib.redirect_stdout(io.StringIO()):\n"
                          "    cli.main(['gen', '--seed', '0', '--n', '1'])")
    assert "hazcom.scenarios" in loaded
    assert [m for m in loaded
            if m.split(".")[1] in ("engine", "harness", "oracle", "dispatch")] == []


def test_package_import_loads_no_submodule():
    assert loaded_after("import hazcom") == []


def test_every_export_is_the_object_its_module_defines():
    assert fresh(
        "import importlib, json, hazcom\n"
        "wrong = [name for name, module in hazcom._MODULE_OF.items()\n"
        "         if getattr(hazcom, name) is not\n"
        "         getattr(importlib.import_module('hazcom.' + module), name)]\n"
        "print(json.dumps(wrong))"
    ) == []


def test_star_import_binds_every_export():
    assert fresh(
        "from hazcom import *\n"
        "import hazcom, json\n"
        "print(json.dumps([name for name in hazcom.__all__\n"
        "                  if globals().get(name) is not getattr(hazcom, name)]))"
    ) == []
    assert set(hazcom.__all__) <= set(dir(hazcom))


def test_dispatch_stays_the_function_whichever_loads_first():
    # Loading the dispatch submodule binds it on the package; the package
    # keeps its function of that name, read before or after.
    for code in ("hazcom.dispatch\nimport hazcom.dispatch",
                 "import hazcom.harness",
                 "from hazcom.dispatch import DeliveryRecord"):
        assert fresh(
            f"import hazcom, json, sys\n{code}\n"
            "print(json.dumps(hazcom.dispatch is sys.modules['hazcom.dispatch'].dispatch))"
        ) is True


def test_submodules_are_attributes():
    # The benchmark reads hazcom.clock, hazcom.engine and hazcom.harness.
    assert fresh(
        "import hazcom, json\n"
        "print(json.dumps([getattr(hazcom, m).__name__ for m in ('clock', 'engine', 'harness')]))"
    ) == ["hazcom.clock", "hazcom.engine", "hazcom.harness"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hazcom.no_such_name
