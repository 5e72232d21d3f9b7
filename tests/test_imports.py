"""What importing the package and running the command line load: the CLI
computes and writes per-distance tables in plain Python, so no subcommand
imports numpy, and its records and roundings need none of STARTUP_HEAVY."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperwalk

# dataclasses loads inspect (and with it ast, dis and tokenize), fractions
# loads decimal: start-up cost the command line's small records and its one
# exact rounding do without.  concurrent.futures loads logging, traceback and
# tokenize; only the dense kernel's threads need it, and apply_per_bit imports
# it when it runs
STARTUP_HEAVY = ["dataclasses", "inspect", "fractions", "decimal", "concurrent.futures"]


def _python(code: str, *args: str) -> str:
    """Run code in a fresh interpreter on this checkout's sources; its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "HYPERWALK_L_MAX"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(hyperwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_binds_its_exports_without_numpy():
    # every module but the command line's, which python -m hyperwalk.cli
    # must find unimported, and neither numpy nor a STARTUP_HEAVY module
    code = "import json, sys; before = set(sys.modules); import hyperwalk; print(json.dumps(sorted(set(sys.modules) - before)))"
    loaded = json.loads(_python(code))
    package = Path(hyperwalk.__file__).parent
    modules = {f"hyperwalk.{path.stem}" for path in package.glob("*.py") if path.stem not in ("__init__", "cli")}
    assert {m for m in loaded if m.startswith("hyperwalk.")} == modules
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
    assert sorted(set(STARTUP_HEAVY) & set(loaded)) == []
    assert len(set(hyperwalk.__all__)) == len(hyperwalk.__all__) == 31
    assert set(hyperwalk.__all__) <= set(dir(hyperwalk))
    for name in hyperwalk.__all__:
        value = getattr(hyperwalk, name)
        module = getattr(value, "__module__", "")
        if module.startswith("hyperwalk."):
            assert getattr(sys.modules[module], name) is value, name
    with pytest.raises(AttributeError, match="module 'hyperwalk' has no attribute 'no_such_name'"):
        hyperwalk.no_such_name


def test_importing_the_cli_loads_its_modules_but_not_numpy():
    code = "import json, sys, hyperwalk.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(_python(code)))
    assert {f"hyperwalk.{m}" for m in ("subsets", "evolution", "spectral", "measure", "formatting")} <= loaded
    assert "numpy" not in loaded


def test_importing_the_cli_loads_no_dataclasses_or_fractions():
    code = "import json, sys; before = set(sys.modules); import hyperwalk.cli; print(json.dumps(sorted(set(sys.modules) - before)))"
    loaded = json.loads(_python(code))
    assert "hyperwalk.measure" in loaded
    assert sorted(set(STARTUP_HEAVY) & set(loaded)) == []


COMMANDS = [
    ["spectrum", "--L", "3", "--format", "json"],
    ["spectrum", "--L", "3", "--format", "csv"],
    *[["graph", "--L", "3", "--format", fmt] for fmt in ("dot", "json", "edge-list")],
    *[
        ["evolve", "--L", "5", *time, "--initial", "0,2", "--format", fmt, *amplitudes]
        for time in (["--t", "0.7"], ["--t-pi-fraction", "1/4"])
        for fmt in ("json", "csv")
        for amplitudes in ([], ["--amplitudes"])
    ],
    *[["time-average", "--L", "5", "--initial", "1", "--format", fmt] for fmt in ("json", "csv")],
    *[["pst", "--L", "5", "--from", "3", *t0, "--format", fmt] for t0 in ([], ["--t0", "0.9"]) for fmt in ("json", "csv")],
]
REFUSALS = [
    ["evolve", "--L", "3", "--t=nan"],
    ["evolve", "--L", "3", "--t-pi-fraction", "1/1" + "0" * 400],
    ["pst", "--L", "30"],
    ["graph", "--L", "12"],
]


def test_no_subcommand_imports_numpy(tmp_path):
    # each command runs to stdout and to --out; a library call that takes a
    # node-sized array runs last, to show that the check sees numpy load.
    # Every run also lists the modules of STARTUP_HEAVY loaded since start-up.
    code = """
import contextlib, io, json, sys
before = set(sys.modules)
from hyperwalk.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    heavy = [m for m in json.loads(sys.argv[2]) if m in sys.modules and m not in before]
    runs.append([argv, code, len(out.getvalue()), "numpy" in sys.modules, heavy])
import hyperwalk
hyperwalk.basis_state(hyperwalk.Level(1), 0)
print(json.dumps([runs, "numpy" in sys.modules]))
"""
    out = tmp_path / "out"
    argvs = [*COMMANDS, *[[*argv, "--out", str(out)] for argv in COMMANDS], *REFUSALS]
    runs, dense_loads_numpy = json.loads(_python(code, json.dumps(argvs), json.dumps(STARTUP_HEAVY)))
    assert [argv for argv, *_ in runs] == argvs
    for argv, code, written, numpy_loaded, heavy in runs:
        expected = 2 if argv in REFUSALS else 0
        assert (code, numpy_loaded, heavy) == (expected, False, []), argv
        assert (written > 0) == (expected == 0 and "--out" not in argv), argv
    assert out.stat().st_size > 0
    assert dense_loads_numpy
